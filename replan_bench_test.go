package graphpipe_test

import (
	"testing"
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/memosnap"
	"graphpipe/internal/planner"
)

// --- Elastic replanning: warm-started vs cold searches -------------------
//
// The scenario behind Options.WarmMemo: a job planned at 32 devices (the
// Table 1 sweep points) loses nodes and must replan at smaller cluster
// sizes with the same mini-batch. Each benchmark runs the descending
// sweep twice as the service would — every plan exports its memo
// snapshot into the store (MemoSink, merged as the service's memo store
// does) so the next elastic event can warm-start. The cold sweep never
// consumes a snapshot; the warm sweep seeds each replan from the
// accumulated one. Both are reported in seconds per full sweep, and the
// benchmark fails unless warm beats cold: the snapshot machinery must pay
// for itself. Warm≡cold byte-identity is pinned separately by the
// conformance suite.
//
// The sweep stays above 4 devices so every point shares the base plan's
// inter-node cost regime; crossing the boundary changes the snapshot's
// cost signature and correctly plans cold.
var replanSweep = []int{24, 16, 8}

func benchReplan(b *testing.B, model string) {
	g, mb := paperModel(b, model, 0, 32)
	pl, err := planner.Get("graphpipe")
	if err != nil {
		b.Fatal(err)
	}

	plan := func(devices int, opts planner.Options) {
		topo := cluster.NewSummitTopology(devices)
		opts.Workers = 1
		opts.CostModel = costmodel.NewDefault(topo)
		if _, _, err := pl.Plan(g, topo, mb, opts); err != nil {
			b.Fatalf("planning %s at %d devices: %v", model, devices, err)
		}
	}

	// The 32-device base plan is the starting point both sweeps share; it
	// is not timed, only its exported snapshot matters.
	var snap *memosnap.Snapshot
	plan(32, planner.Options{MemoSink: func(s *memosnap.Snapshot) { snap = s }})
	if snap == nil || snap.Entries() == 0 {
		b.Fatal("base plan exported no memo snapshot")
	}

	sweep := func(warm bool) time.Duration {
		cur := snap
		start := time.Now()
		for _, devices := range replanSweep {
			opts := planner.Options{
				MemoSink: func(s *memosnap.Snapshot) { cur = memosnap.Merge(cur, s) },
			}
			if warm {
				opts.WarmMemo = func(memosnap.Key) *memosnap.Snapshot { return cur }
			}
			plan(devices, opts)
		}
		return time.Since(start)
	}

	var cold, warm time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold += sweep(false)
		warm += sweep(true)
	}
	coldS := cold.Seconds() / float64(b.N)
	warmS := warm.Seconds() / float64(b.N)
	b.ReportMetric(coldS, "replan_cold_s")
	b.ReportMetric(warmS, "replan_warm_s")
	if warmS >= coldS {
		b.Fatalf("warm replan regressed on %s: %.3fs warm >= %.3fs cold", model, warmS, coldS)
	}
}

func BenchmarkReplanMMT32(b *testing.B)    { benchReplan(b, "mmt") }
func BenchmarkReplanDLRM32(b *testing.B)   { benchReplan(b, "dlrm") }
func BenchmarkReplanCANDLE32(b *testing.B) { benchReplan(b, "candle-uno") }
