package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/planner"
)

// The traced run measures each layer from the benchmark's side of its
// public API: a counting wrapper around the cost model the planner is
// handed, a second wrapper under costmodel.NewCached that sees only the
// queries the cache could not answer, and a collector on the planner's
// span hook. Nothing inside the program changes.

// costCounter counts and times cost-model work across both wrappers.
type costCounter struct {
	calls    atomic.Int64 // queries the planner and evaluator made
	misses   atomic.Int64 // queries that reached the analytic model
	missNano atomic.Int64 // time spent computing those
}

// newTracedModel returns a model equivalent to costmodel.NewDefault(topo)
// whose queries are counted in c.
func newTracedModel(topo *cluster.Topology, c *costCounter) costmodel.Model {
	inner := &missModel{Model: costmodel.New(costmodel.DefaultParams(), topo), c: c}
	return &callModel{Model: costmodel.NewCached(inner), c: c}
}

// callModel counts every query made of the cached model.
type callModel struct {
	costmodel.Model
	c *costCounter
}

func (m *callModel) OpForwardTime(op graph.Op, b float64, d cluster.Device) float64 {
	m.c.calls.Add(1)
	return m.Model.OpForwardTime(op, b, d)
}

func (m *callModel) OpBackwardTime(op graph.Op, b float64, d cluster.Device) float64 {
	m.c.calls.Add(1)
	return m.Model.OpBackwardTime(op, b, d)
}

func (m *callModel) Stage(g *graph.Graph, cfg costmodel.StageConfig) costmodel.StageCosts {
	m.c.calls.Add(1)
	return m.Model.Stage(g, cfg)
}

func (m *callModel) TPS(g *graph.Graph, cfg costmodel.StageConfig, mb int) float64 {
	m.c.calls.Add(1)
	return m.Model.TPS(g, cfg, mb)
}

func (m *callModel) StageMemory(g *graph.Graph, cfg costmodel.StageConfig, n int) float64 {
	m.c.calls.Add(1)
	return m.Model.StageMemory(g, cfg, n)
}

func (m *callModel) FitsMemory(g *graph.Graph, cfg costmodel.StageConfig, n int) bool {
	m.c.calls.Add(1)
	return m.Model.FitsMemory(g, cfg, n)
}

func (m *callModel) MaxTPS(g *graph.Graph, mb int) float64 {
	m.c.calls.Add(1)
	return m.Model.MaxTPS(g, mb)
}

// missModel counts and times the queries that reach the analytic model:
// cache misses plus the pass-through queries the cache never stores.
type missModel struct {
	costmodel.Model
	c *costCounter
}

func (m *missModel) timed(start time.Time) {
	m.c.misses.Add(1)
	m.c.missNano.Add(int64(time.Since(start)))
}

func (m *missModel) OpForwardTime(op graph.Op, b float64, d cluster.Device) float64 {
	defer m.timed(time.Now())
	return m.Model.OpForwardTime(op, b, d)
}

func (m *missModel) OpBackwardTime(op graph.Op, b float64, d cluster.Device) float64 {
	defer m.timed(time.Now())
	return m.Model.OpBackwardTime(op, b, d)
}

func (m *missModel) Stage(g *graph.Graph, cfg costmodel.StageConfig) costmodel.StageCosts {
	defer m.timed(time.Now())
	return m.Model.Stage(g, cfg)
}

func (m *missModel) TPS(g *graph.Graph, cfg costmodel.StageConfig, mb int) float64 {
	defer m.timed(time.Now())
	return m.Model.TPS(g, cfg, mb)
}

func (m *missModel) MaxTPS(g *graph.Graph, mb int) float64 {
	defer m.timed(time.Now())
	return m.Model.MaxTPS(g, mb)
}

func (c *costCounter) missTime() time.Duration { return time.Duration(c.missNano.Load()) }

// tracer is the traced run's instrumentation of the planning layers. Its
// methods are no-ops on a nil tracer, so untraced code paths call them
// unconditionally.
type tracer struct {
	cost  costCounter
	spans *spanTotals
	l     *layers
}

func newTracer() *tracer { return &tracer{spans: newSpanTotals(), l: newLayers()} }

// options wires the traced cost model and the span collector into opts,
// or the default cost model when untraced.
func (t *tracer) options(opts planner.Options, topo *cluster.Topology) planner.Options {
	if t == nil {
		opts.CostModel = costmodel.NewDefault(topo)
		return opts
	}
	opts.CostModel = newTracedModel(topo, &t.cost)
	opts.Span = t.spans.hook
	return opts
}

// mark returns the cost-model time so far, to split a later interval.
func (t *tracer) mark() time.Duration {
	if t == nil {
		return 0
	}
	return t.cost.missTime()
}

// addSelf records d, spent in layer since mark, less the cost-model
// time inside it, which goes to costmodel.miss_s.
func (t *tracer) addSelf(layer string, d, mark time.Duration) {
	if t == nil {
		return
	}
	miss := t.cost.missTime() - mark
	t.l.addTime("costmodel.miss_s", miss)
	t.l.addTime(layer, d-miss)
}

func (t *tracer) addTime(layer string, d time.Duration) {
	if t != nil {
		t.l.addTime(layer, d)
	}
}

func (t *tracer) addCount(layer string, v float64) {
	if t != nil {
		t.l.addCount(layer, v)
	}
}

// plan records one planner.Plan call of duration d that began at mark.
func (t *tracer) plan(d, mark time.Duration, stats planner.Stats) {
	t.addSelf("core.search_s", d, mark)
	t.addCount("core.dp_states", float64(stats.DPStates))
	t.addCount("core.binary_iters", float64(stats.BinaryIters))
	t.addCount("memosnap.entries_reused", float64(stats.MemoEntriesReused))
}

// report moves the planner's memo phases out of core.search_s into
// their own layers, adds the probe spans and cost-model counts, and
// renders per-operation metrics.
func (t *tracer) report(ops int) map[string]metric {
	probes, probeTime := t.spans.get("dp.probe")
	t.l.addCount("core.probes", float64(probes))
	t.l.addTime("core.probe_s", probeTime)
	for span, layer := range map[string]string{"memo.import": "memosnap.import_s", "memo.export": "memosnap.export_s"} {
		_, d := t.spans.get(span)
		t.l.addTime(layer, d)
		t.l.addTime("core.search_s", -d)
	}
	t.l.addCount("costmodel.calls", float64(t.cost.calls.Load()))
	t.l.addCount("costmodel.misses", float64(t.cost.misses.Load()))
	return t.l.report(ops)
}

// spanTotals collects planner phase spans (planner.Options.Span): count
// and total duration per span name. Spans may end on concurrent search
// workers, hence the mutex.
type spanTotals struct {
	mu    sync.Mutex
	count map[string]int
	total map[string]time.Duration
}

func newSpanTotals() *spanTotals {
	return &spanTotals{count: map[string]int{}, total: map[string]time.Duration{}}
}

func (s *spanTotals) hook(name string, _ ...string) func() {
	start := time.Now()
	return func() {
		d := time.Since(start)
		s.mu.Lock()
		s.count[name]++
		s.total[name] += d
		s.mu.Unlock()
	}
}

func (s *spanTotals) get(name string) (int, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count[name], s.total[name]
}

// layers accumulates per-layer metrics over the traced operations. Times
// are summed as durations and counts as plain numbers; report divides
// both by the number of operations, so the per-operation self times add
// up to the per-operation traced latency.
type layers struct {
	times  map[string]time.Duration
	counts map[string]float64
}

func newLayers() *layers {
	return &layers{times: map[string]time.Duration{}, counts: map[string]float64{}}
}

func (l *layers) addTime(name string, d time.Duration) { l.times[name] += d }
func (l *layers) addCount(name string, v float64)      { l.counts[name] += v }

// perLayerMetrics lists every per-layer metric with its unit, in report
// order. Each traced workload reports all of them; a layer the workload
// does not run reads 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"models.build_s", "s"},
	{"costmodel.calls", "count"},
	{"costmodel.misses", "count"},
	{"costmodel.hit_ratio", "ratio"},
	{"costmodel.miss_s", "s"},
	{"core.search_s", "s"},
	{"core.dp_states", "count"},
	{"core.binary_iters", "count"},
	{"core.probes", "count"},
	{"core.probe_s", "s"},
	{"strategy.validate_s", "s"},
	{"strategy.encode_s", "s"},
	{"strategy.artifact_bytes", "bytes"},
	{"eval.sim_s", "s"},
	{"memosnap.import_s", "s"},
	{"memosnap.export_s", "s"},
	{"memosnap.merge_s", "s"},
	{"memosnap.entries", "count"},
	{"memosnap.entries_reused", "count"},
	{"service.fingerprint_s", "s"},
	{"service.warm_plan_s", "s"},
	{"service.cold_plan_s", "s"},
	{"service.hit_memory", "count"},
	{"service.hit_disk", "count"},
	{"service.hit_peer", "count"},
	{"service.planned", "count"},
	{"service.shared_waits", "count"},
	{"service.rejected", "count"},
	{"service.hit_ratio", "ratio"},
	{"fleet.direct_s", "s"},
	{"fleet.hop_s", "s"},
	{"fleet.floor_s", "s"},
	{"fleet.failovers", "count"},
	{"fleet.retried_429", "count"},
	{"trace.op_s", "s"},
	{"trace.untraced_op_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.unattributed_s", "s"},
}

// ratios are reported as they are accumulated, not divided per operation.
var ratioMetrics = map[string]bool{
	"costmodel.hit_ratio": true,
	"service.hit_ratio":   true,
}

// report renders the accumulated layers as per-operation metrics. ops is
// the number of traced operations; the costmodel hit ratio is derived
// here from the call and miss totals.
func (l *layers) report(ops int) map[string]metric {
	if calls := l.counts["costmodel.calls"]; calls > 0 {
		l.counts["costmodel.hit_ratio"] = 1 - l.counts["costmodel.misses"]/calls
	}
	out := make(map[string]metric, len(perLayerMetrics))
	for _, pm := range perLayerMetrics {
		var v float64
		if d, ok := l.times[pm.name]; ok {
			v = d.Seconds()
		} else {
			v = l.counts[pm.name]
		}
		if !ratioMetrics[pm.name] {
			v /= float64(ops)
		}
		out[pm.name] = metric{Value: v, Unit: pm.unit, n: ops}
	}
	return out
}

// planSelfTimes are the layer self times that partition a traced
// planning operation; core.probe_s is inside core.search_s and is not
// among them.
var planSelfTimes = []string{
	"models.build_s", "core.search_s", "costmodel.miss_s", "strategy.validate_s",
	"strategy.encode_s", "eval.sim_s", "memosnap.import_s", "memosnap.export_s", "memosnap.merge_s",
}

// finishTrace fills the trace.* metrics: the traced and untraced
// per-operation latency, their difference, and what planSelfTimes leave
// unattributed.
func finishTrace(m map[string]metric, traced, untraced time.Duration) {
	n := m["trace.op_s"].n
	m["trace.op_s"] = metric{Value: traced.Seconds(), Unit: "s", n: n}
	m["trace.untraced_op_s"] = metric{Value: untraced.Seconds(), Unit: "s", n: 1}
	m["trace.overhead_s"] = metric{Value: (traced - untraced).Seconds(), Unit: "s", n: n}
	rest := traced.Seconds()
	for _, name := range planSelfTimes {
		rest -= m[name].Value
	}
	m["trace.unattributed_s"] = metric{Value: rest, Unit: "s", n: n}
}

// traced runs o once untraced and then traced for the rest of the
// budget, and returns the per-layer metrics.
func traced(ctx context.Context, budget time.Duration, o op) (map[string]metric, *result, error) {
	untraced, bad, err := o(nil)
	if bad != nil || err != nil {
		return nil, bad, err
	}
	tr := newTracer()
	lat, _, bad, err := repeat(ctx, budget, o, tr)
	if bad != nil || err != nil {
		return nil, bad, err
	}
	var total time.Duration
	for _, d := range lat {
		total += d
	}
	m := tr.report(len(lat))
	finishTrace(m, total/time.Duration(len(lat)), untraced)
	return m, nil, nil
}
