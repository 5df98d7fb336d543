package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"graphpipe/internal/graph"
	"graphpipe/internal/memosnap"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
)

// The elastic-replan set: a job planned at 32 devices loses nodes and
// replans at each of replanSweep with the same mini-batch, every replan
// warm-starting from the snapshot merged forward so far.
var (
	replanModels = []string{"mmt", "candle-uno"}
	replanSweep  = []int{24, 16, 8}
)

type replanModel struct {
	name string
	g    *graph.Graph
	mb   int
	base *memosnap.Snapshot // exported by the 32-device cold plan
}

// planAt plans m at devices, warm-starting from warm when it is non-nil,
// and returns the strategy, the planner's statistics and the exported
// memo snapshot.
func planAt(pl planner.Planner, m *replanModel, devices int, warm *memosnap.Snapshot, tr *tracer) (*strategy.Strategy, planner.Stats, *memosnap.Snapshot, error) {
	topo, err := models.Topology("", devices)
	if err != nil {
		return nil, planner.Stats{}, nil, err
	}
	var exported *memosnap.Snapshot
	opts := planner.Options{
		Workers:  1,
		MemoSink: func(s *memosnap.Snapshot) { exported = s },
	}
	if warm != nil {
		opts.WarmMemo = func(memosnap.Key) *memosnap.Snapshot { return warm }
	}
	opts = tr.options(opts, topo)
	mark, start := tr.mark(), time.Now()
	st, stats, err := pl.Plan(m.g, topo, m.mb, opts)
	if err != nil {
		return nil, stats, nil, fmt.Errorf("planning %s@%d: %w", m.name, devices, err)
	}
	tr.plan(time.Since(start), mark, stats)
	return st, stats, exported, nil
}

// runElasticReplan cold-plans each model at 32 devices in set-up, then
// times warm sweeps over 24→16→8 devices (merges included) until the
// budget is spent. After timing it plans every sweep point cold and
// checks each warm plan against it byte for byte.
func runElasticReplan(ctx context.Context, e env) (*result, error) {
	pl, err := planner.Get("graphpipe")
	if err != nil {
		return nil, err
	}
	order := append([]string(nil), replanModels...)
	rand.New(rand.NewSource(e.seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	// Set-up: the 32-device cold plans whose snapshots every sweep starts
	// from. It is run once; each cold plan takes seconds.
	start := time.Now()
	var set []*replanModel
	for _, name := range order {
		g, _, err := models.Build(name, 0, 32)
		if err != nil {
			return nil, err
		}
		mb, err := models.PaperMiniBatch(name, 32)
		if err != nil {
			return nil, err
		}
		m := &replanModel{name: name, g: g, mb: mb}
		if _, _, m.base, err = planAt(pl, m, 32, nil, nil); err != nil {
			return nil, err
		}
		if m.base == nil || m.base.Entries() == 0 {
			return nil, fmt.Errorf("%s@32 exported no memo snapshot", name)
		}
		set = append(set, m)
	}
	setup := time.Since(start)

	type point struct {
		model   string
		devices int
	}
	warmPlans := map[point][]byte{}
	attempted, warmStarts := 0, 0

	// sweep replans every model over replanSweep from its base snapshot
	// and returns the wall time of the replans and merges.
	sweep := func(tr *tracer) (time.Duration, *result, error) {
		var plans []*strategy.Strategy
		var elapsed time.Duration
		for _, m := range set {
			cur := m.base
			begin := time.Now()
			for _, d := range replanSweep {
				attempted++
				st, stats, exported, err := planAt(pl, m, d, cur, tr)
				if err != nil {
					return 0, nil, err
				}
				mergeStart := time.Now()
				cur = memosnap.Merge(cur, exported)
				tr.addTime("memosnap.merge_s", time.Since(mergeStart))
				if stats.MemoWarmStarted {
					warmStarts++
				}
				plans = append(plans, st)
			}
			elapsed += time.Since(begin)
			tr.addCount("memosnap.entries", float64(cur.Entries()))
		}
		// Outside the timed region: every sweep must return the same
		// strategies as the first.
		i := 0
		for _, m := range set {
			for _, d := range replanSweep {
				b, err := json.Marshal(plans[i])
				if err != nil {
					return 0, nil, err
				}
				i++
				p := point{m.name, d}
				if prev, ok := warmPlans[p]; !ok {
					warmPlans[p] = b
				} else if !bytes.Equal(prev, b) {
					return 0, checkFailed(attempted, 1, "%s@%d: warm replans differ between sweeps", m.name, d), nil
				}
			}
		}
		return elapsed, nil, nil
	}

	var m map[string]metric
	if e.trace {
		var bad *result
		if m, bad, err = traced(ctx, e.seconds, sweep); bad != nil || err != nil {
			return bad, err
		}
	} else {
		lat, window, bad, err := repeat(ctx, e.seconds, sweep, nil)
		if bad != nil || err != nil {
			return bad, err
		}
		m = map[string]metric{"setup_s": {Value: setup.Seconds(), Unit: "s", n: 1}}
		latencyMetrics(m, lat, window)
	}

	// Checks: each warm plan equals a cold plan of the same point, and
	// satisfies C1–C4.
	var tps []float64
	for _, mdl := range set {
		for _, d := range replanSweep {
			attempted++
			st, _, _, err := planAt(pl, mdl, d, nil, nil)
			if err != nil {
				return nil, err
			}
			cold, err := json.Marshal(st)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(cold, warmPlans[point{mdl.name, d}]) {
				return checkFailed(attempted, 1, "%s@%d: warm replan differs from the cold plan", mdl.name, d), nil
			}
			topo, err := models.Topology("", d)
			if err != nil {
				return nil, err
			}
			if err := st.Validate(mdl.g, topo); err != nil {
				return checkFailed(attempted, 1, "%s@%d violates C1–C4: %v", mdl.name, d, err), nil
			}
			tput, err := simThroughput(mdl.g, topo, st)
			if err != nil {
				return nil, err
			}
			tps = append(tps, tput)
		}
	}
	if !e.trace {
		m["samples_per_s"] = metric{Value: geomean(tps), Unit: "samples/s", n: len(tps),
			note: fmt.Sprintf("%d of %d replans warm-started", warmStarts, attempted-len(tps))}
	}
	return &result{Correct: true, Attempted: attempted, Metrics: m}, nil
}
