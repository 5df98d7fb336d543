package loadgen

import (
	"net/http/httptest"
	"strings"
	"testing"

	"graphpipe/internal/service"

	_ "graphpipe/internal/eval/all"    // register the built-in backends
	_ "graphpipe/internal/planner/all" // register the built-in planners
)

// TestRunAgainstDaemon replays a small skewed workload against one real
// in-process daemon and checks the reduction hangs together: counts
// reconcile, the Zipf head turns into cache hits, stats deltas flow
// through, and the bench line carries the gate metrics.
func TestRunAgainstDaemon(t *testing.T) {
	svc, err := service.New(service.Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	res, err := Run(Config{
		Target:      srv.URL,
		Requests:    60,
		Concurrency: 4,
		ZipfS:       1.2,
		Population:  6,
		Devices:     []int{2, 4},
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Shed+res.Errors != res.Requests {
		t.Fatalf("outcome counts do not reconcile: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors against a healthy daemon: %+v", res.Errors, res.Sources)
	}
	if res.DistinctFingerprints == 0 || res.DistinctFingerprints > 12 {
		t.Fatalf("distinct fingerprints = %d, want within the 6x2 question space", res.DistinctFingerprints)
	}
	// 60 skewed requests over at most 12 questions must repeat: the
	// repeats are warm, so the hit ratio is strictly positive and the
	// planner ran at most once per distinct question.
	if res.HitRatio <= 0 {
		t.Fatalf("hit ratio = %v over a repeating workload; sources: %v", res.HitRatio, res.Sources)
	}
	if res.Planned > uint64(res.DistinctFingerprints) {
		t.Fatalf("planned %d > %d distinct questions; caching is off", res.Planned, res.DistinctFingerprints)
	}
	if res.Overall.Count != res.Completed {
		t.Fatalf("latency sample %d != completed %d", res.Overall.Count, res.Completed)
	}

	snap := svc.Stats()
	if snap.Values["planned"] != float64(res.Planned) {
		t.Fatalf("stats delta planned = %d, daemon says %v", res.Planned, snap.Values["planned"])
	}

	line := res.BenchLine()
	for _, want := range []string{"fleet_warm_p99_s", "fleet_cold_p50_s", "fleet_hit_ratio"} {
		if !strings.Contains(line, " "+want) {
			t.Errorf("bench line missing %s: %q", want, line)
		}
	}
}
