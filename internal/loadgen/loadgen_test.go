package loadgen

import (
	"math"
	"strings"
	"testing"
)

// TestZipfSkewAndDeterminism pins the sampler: identical seeds replay
// identical sequences, rank 0 dominates under skew, and every rank stays
// reachable.
func TestZipfSkewAndDeterminism(t *testing.T) {
	cfg := Config{Requests: 5000, Population: 16, ZipfS: 1.1, Seed: 42}
	a := sampleSequence(cfg, 16)
	b := sampleSequence(cfg, 16)
	counts := make([]int, 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical seeds: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 16 {
			t.Fatalf("draw %d = %d out of population range", i, a[i])
		}
		counts[a[i]]++
	}
	if counts[0] <= counts[15]*2 {
		t.Errorf("skew missing: rank 0 drawn %d times vs rank 15 %d times", counts[0], counts[15])
	}
	if counts[0] < len(a)/8 {
		t.Errorf("rank 0 drew only %d of %d; Zipf head too light", counts[0], len(a))
	}

	cfg.Seed = 43
	c := sampleSequence(cfg, 16)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds replayed the identical sequence")
	}
}

// TestZipfUniformFallback pins s=0 ... uniform draws cover the
// population roughly evenly.
func TestZipfUniformFallback(t *testing.T) {
	z := newZipf(0, 10)
	r := newRNG(1, "test/uniform")
	counts := make([]int, 10)
	const n = 10000
	for i := 0; i < n; i++ {
		counts[z.sample(r.float())]++
	}
	for rank, c := range counts {
		if math.Abs(float64(c)-n/10) > n/20 {
			t.Errorf("rank %d drawn %d times, want ~%d (uniform)", rank, c, n/10)
		}
	}
}

func TestPercentiles(t *testing.T) {
	p := percentiles([]float64{4, 1, 3, 2, 5})
	if p.Count != 5 || p.P50 != 3 || p.Max != 5 {
		t.Fatalf("percentiles = %+v, want count 5 / p50 3 / max 5", p)
	}
	if p.P99 != 5 {
		t.Fatalf("p99 = %v, want the max of a tiny sample", p.P99)
	}
	if z := percentiles(nil); z.Count != 0 || z.P50 != 0 {
		t.Fatalf("empty sample percentiles = %+v, want zeros", z)
	}
}

// TestBenchLineShape pins the line fleet_smoke.sh parses: one Benchmark line,
// iteration count 1, value/unit pairs including the gate's two metrics,
// omitting empty latency classes.
func TestBenchLineShape(t *testing.T) {
	r := &Result{
		Requests:  100,
		Completed: 98,
		Shed:      2,
		HitRatio:  0.75,
		Overall:   Percentiles{Count: 98, P50: 0.01, P95: 0.02, P99: 0.03},
		Warm:      Percentiles{Count: 70, P99: 0.005},
		Cold:      Percentiles{Count: 10, P50: 0.2},
		TierLatency: map[string]Percentiles{
			"hit-memory": {Count: 60, P50: 0.001},
		},
		PeerFills: 4,
		Planned:   10,
	}
	line := r.BenchLine()
	fields := strings.Fields(line)
	if fields[0] != "BenchmarkFleetGen" || fields[1] != "1" {
		t.Fatalf("line prefix = %q %q, want BenchmarkFleetGen 1", fields[0], fields[1])
	}
	if (len(fields)-2)%2 != 0 {
		t.Fatalf("line has unpaired value/unit fields: %q", line)
	}
	for _, want := range []string{
		"fleet_warm_p99_s", "fleet_cold_p50_s", "fleet_hit_ratio",
		"fleet_shed_rate", "fleet_peer_fills", "fleet_hit_memory_p50_s",
	} {
		if !strings.Contains(line, " "+want) {
			t.Errorf("bench line missing %s: %q", want, line)
		}
	}

	empty := &Result{Requests: 1}
	if line := empty.BenchLine(); strings.Contains(line, "fleet_warm_p99_s") ||
		strings.Contains(line, "fleet_cold_p50_s") {
		t.Errorf("empty latency classes must be omitted, got %q", line)
	}
}
