// Package piper reimplements the Piper planner (Tarnawski et al.,
// NeurIPS'21) as the paper's second SPP baseline (§7.1). Piper's dynamic
// program runs over the downsets of the operator DAG: a state is the set of
// operators already assigned to earlier pipeline stages, and a transition
// peels off the next stage as the difference of two downsets. Stages may
// therefore span branches — a strictly larger partition space than
// PipeDream's single linearization — but the downset lattice is exponential
// in the number of parallel branches (§7.2: |D| ≥ kⁿ), which is why the
// paper reports ✗ for DLRM and CANDLE-Uno. This implementation bounds the
// exploration with a state budget and returns ErrSearchExplosion beyond it,
// reproducing the ✗ entries of Table 1.
//
// Like PipeDream, Piper schedules the resulting sequential pipeline with
// synchronous 1F1B and uses the shared cost model.
package piper

import (
	"errors"
	"fmt"
	"math"
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
)

// Search bounds. A zero planner.Options.StateBudget or Timeout selects the
// default here; the downset limit is fixed.
const (
	// defaultStateBudget bounds DP states plus enumeration steps before the
	// planner gives up, reproducing Table 1's ✗ for many-branch models.
	defaultStateBudget = 50_000_000
	// downsetLimit aborts before the DP when a quick count shows the graph
	// has more downsets than this: the lattice is the DP state space, so
	// exceeding it guarantees an explosion. This is the cheap structural
	// check behind Table 1's immediate ✗ entries.
	downsetLimit = 50_000
	// defaultTimeout bounds the planner wall-clock ("no strategy within
	// reasonable timeframes", §7.1).
	defaultTimeout = 5 * time.Minute
)

// ErrSearchExplosion is returned when the downset lattice exceeds the state
// budget (the ✗ of Table 1).
var ErrSearchExplosion = errors.New("piper: downset state space exceeds budget")

// ErrNoStrategy is returned when no partition fits device memory.
var ErrNoStrategy = errors.New("piper: no valid strategy found")

// Planner is the Piper baseline planner.
type Planner struct {
	g     *graph.Graph
	model costmodel.Model
	topo  *cluster.Topology
	opts  planner.Options
}

// NewPlanner constructs the planner. Of opts it reads the micro-batch
// knobs, StateBudget and Timeout; the cost model is the one passed here.
func NewPlanner(g *graph.Graph, model costmodel.Model, opts planner.Options) *Planner {
	if opts.StateBudget == 0 {
		opts.StateBudget = defaultStateBudget
	}
	if opts.Timeout == 0 {
		opts.Timeout = defaultTimeout
	}
	return &Planner{g: g, model: model, topo: model.Topology(), opts: opts}
}

// CountDownsets counts the downsets of g's operator DAG, aborting once the
// count exceeds limit (returning limit+1). The downset count is Piper's DP
// state space (§7.2: |D| ≥ kⁿ for n branches of k operators).
func CountDownsets(g *graph.Graph, limit int) int {
	count := 0
	// Enumerate ideals by the canonical extension rule: extend only with
	// ready operators at positions ≥ the last choice's successor slot.
	var rec func(rest graph.NodeSet, ready []graph.NodeID, minIdx int) bool
	rec = func(rest graph.NodeSet, ready []graph.NodeID, minIdx int) bool {
		for i := minIdx; i < len(ready); i++ {
			count++
			if count > limit {
				return false
			}
			v := ready[i]
			newRest := rest.Clone()
			newRest.Remove(v)
			newReady := append([]graph.NodeID(nil), ready[i+1:]...)
			for _, w := range g.Succ(v) {
				if !newRest.Contains(w) {
					continue
				}
				ok := true
				for _, pp := range g.Pred(w) {
					if newRest.Contains(pp) {
						ok = false
						break
					}
				}
				if ok {
					newReady = append(newReady, w)
				}
			}
			if !rec(newRest, newReady, 0) {
				return false
			}
		}
		return true
	}
	all := g.AllNodes()
	var frontier []graph.NodeID
	for _, v := range g.Sources() {
		frontier = append(frontier, v)
	}
	if !rec(all, frontier, 0) {
		return limit + 1
	}
	return count + 1 // + the empty downset
}

type dpEntry struct {
	bottleneck float64
	// stage is the operator set peeled off by the winning transition;
	// next identifies the successor state (the remaining upset's key).
	stage graph.NodeSet
	d1    int
	next  string
	ok    bool
}

type stateKey struct {
	upset string
	d     int
	depth int
}

type searchState struct {
	p        *Planner
	b        int
	mini     int
	memo     map[stateKey]dpEntry
	budget   int
	states   int
	deadline time.Time
}

var errBudget = errors.New("budget exceeded")

// frontierOps returns the operators of the upset whose predecessors are all
// outside it (the candidates for the next stage's "first" operators).
func (s *searchState) frontierOps(upset graph.NodeSet) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range upset.IDs() {
		ready := true
		for _, p := range s.p.g.Pred(v) {
			if upset.Contains(p) {
				ready = false
				break
			}
		}
		if ready {
			out = append(out, v)
		}
	}
	return out
}

// enumerateStages yields every non-empty downset of the sub-DAG induced on
// the upset: each is a valid next pipeline stage (the difference of two
// downsets of the full graph). The enumeration is the exponential heart of
// Piper; every yielded candidate counts against the state budget, so
// many-branch models abort with ErrSearchExplosion instead of running for
// the lattice's kⁿ lifetime.
func (s *searchState) enumerateStages(upset graph.NodeSet, yield func(stage graph.NodeSet) error) error {
	frontier := s.frontierOps(upset)
	// Recursive inclusion/exclusion over frontier-closure: a downset of
	// the sub-DAG is built by repeatedly picking ready operators.
	var rec func(stage, rest graph.NodeSet, ready []graph.NodeID, minIdx int) error
	rec = func(stage, rest graph.NodeSet, ready []graph.NodeID, minIdx int) error {
		for i := minIdx; i < len(ready); i++ {
			s.states++
			if s.states > s.budget {
				return errBudget
			}
			if s.states%(1<<16) == 0 && time.Now().After(s.deadline) {
				return errBudget
			}
			v := ready[i]
			newStage := stage.Clone()
			newStage.Add(v)
			newRest := rest.Clone()
			newRest.Remove(v)
			// Newly ready ops: successors of v whose preds are all out of
			// newRest.
			newReady := append([]graph.NodeID(nil), ready[i+1:]...)
			for _, w := range s.p.g.Succ(v) {
				if !newRest.Contains(w) {
					continue
				}
				ok := true
				for _, pp := range s.p.g.Pred(w) {
					if newRest.Contains(pp) {
						ok = false
						break
					}
				}
				if ok {
					newReady = append(newReady, w)
				}
			}
			if err := yield(newStage); err != nil {
				return err
			}
			if err := rec(newStage, newRest, newReady, 0); err != nil {
				return err
			}
		}
		return nil
	}
	empty := graph.NewNodeSet(s.p.g.Len())
	return rec(empty, upset.Clone(), frontier, 0)
}

type stageEval struct {
	tps          float64
	weightMem    float64
	actPerSample float64
}

// dp solves: partition the remaining upset over d devices into exactly
// `depth` further stages, minimizing the bottleneck TPS.
func (s *searchState) dp(upset graph.NodeSet, d, depth int, evals map[string]*stageEval) (dpEntry, error) {
	key := stateKey{upset: upset.Key(), d: d, depth: depth}
	if e, ok := s.memo[key]; ok {
		return e, nil
	}
	s.states++
	if s.states > s.budget {
		return dpEntry{}, errBudget
	}
	var best dpEntry
	best.bottleneck = math.Inf(1)

	evalStage := func(stage graph.NodeSet, d1, inFlightMicro int) (float64, bool) {
		k := stage.Key() + "/" + itoa(d1)
		ev := evals[k]
		if ev == nil {
			cfg := costmodel.StageConfig{
				Ops:                stage,
				MicroBatch:         s.b,
				DataPar:            d1,
				InterNode:          s.p.topo.Len() > 4,
				InterNodeAllreduce: d1 > 4,
			}
			costs := s.p.model.Stage(s.p.g, cfg)
			ev = &stageEval{
				tps:          s.p.model.TPS(s.p.g, cfg, s.mini),
				weightMem:    costs.WeightBytes,
				actPerSample: costs.ActivationBytesPerSample,
			}
			evals[k] = ev
		}
		if ev.weightMem+ev.actPerSample*float64(inFlightMicro*s.b) > s.p.topo.MinMemory() {
			return 0, false
		}
		return ev.tps, true
	}

	if depth == 1 {
		if tps, ok := evalStage(upset, d, 1); ok {
			best = dpEntry{bottleneck: tps, stage: upset.Clone(), d1: d, next: "", ok: true}
		}
		s.memo[key] = best
		return best, nil
	}

	err := s.enumerateStages(upset, func(stage graph.NodeSet) error {
		if stage.Len() == upset.Len() {
			return nil // must leave work for the remaining depth-1 stages
		}
		rest := upset.Minus(stage)
		if rest.Len() < depth-1 {
			return nil
		}
		for d1 := 1; d1 <= d-(depth-1); d1++ {
			tps, ok := evalStage(stage, d1, depth)
			if !ok {
				continue
			}
			if tps >= best.bottleneck {
				continue
			}
			sub, err := s.dp(rest, d-d1, depth-1, evals)
			if err != nil {
				return err
			}
			if !sub.ok {
				continue
			}
			bn := math.Max(tps, sub.bottleneck)
			if bn < best.bottleneck {
				best = dpEntry{bottleneck: bn, stage: stage.Clone(), d1: d1,
					next: rest.Key(), ok: true}
			}
		}
		return nil
	})
	if err != nil {
		return dpEntry{}, err
	}
	s.memo[key] = best
	return best, nil
}

func itoa(n int) string { return fmt.Sprint(n) }

// Plan runs the downset DP over stage counts and micro-batch sizes.
func (p *Planner) Plan(miniBatch int) (*strategy.Strategy, planner.Stats, error) {
	if miniBatch <= 0 {
		return nil, planner.Stats{}, fmt.Errorf("piper: invalid mini-batch %d", miniBatch)
	}
	bCands := p.opts.MicroBatchCandidates(miniBatch)
	if len(bCands) == 0 {
		return nil, planner.Stats{}, fmt.Errorf("piper: no candidate micro-batch sizes divide mini-batch %d", miniBatch)
	}
	// Structural pre-check: the downset lattice is the DP state space.
	if n := CountDownsets(p.g, downsetLimit); n > downsetLimit {
		return nil, planner.Stats{}, fmt.Errorf("%w: > %d downsets", ErrSearchExplosion, downsetLimit)
	}
	deadline := time.Now().Add(p.opts.Timeout)
	maxDepth := p.topo.Len()
	if n := p.g.Len(); n < maxDepth {
		maxDepth = n
	}
	all := p.g.AllNodes()

	type winner struct {
		s     *searchState
		depth int
		entry dpEntry
		score float64
	}
	var best *winner
	states := 0
	budget := p.opts.StateBudget
	for _, b := range bCands {
		s := &searchState{p: p, b: b, mini: miniBatch,
			memo: make(map[stateKey]dpEntry), budget: budget, deadline: deadline}
		evals := make(map[string]*stageEval)
		for depth := 1; depth <= maxDepth; depth++ {
			e, err := s.dp(all, p.topo.Len(), depth, evals)
			if err != nil {
				return nil, planner.Stats{}, fmt.Errorf("%w (budget %d)", ErrSearchExplosion, p.opts.StateBudget)
			}
			if !e.ok {
				continue
			}
			// Synchronous 1F1B iteration estimate (see pipedream):
			// bubbles scale with pipeline depth.
			score := e.bottleneck * float64(miniBatch+(depth-1)*b)
			if best == nil || score < best.score {
				best = &winner{s: s, depth: depth, entry: e, score: score}
			}
		}
		states += s.states
		budget -= s.states
		if budget <= 0 {
			return nil, planner.Stats{}, fmt.Errorf("%w (budget %d)", ErrSearchExplosion, p.opts.StateBudget)
		}
	}
	if best == nil {
		return nil, planner.Stats{}, ErrNoStrategy
	}
	st, err := p.assemble(best.s, best.depth, miniBatch)
	if err != nil {
		return nil, planner.Stats{}, err
	}
	return st, planner.Stats{BottleneckTPS: best.entry.bottleneck, DPStates: states}, nil
}

// assemble reconstructs the stage chain from the memo.
func (p *Planner) assemble(s *searchState, depth, miniBatch int) (*strategy.Strategy, error) {
	upset := p.g.AllNodes()
	d := p.topo.Len()
	var ops []graph.NodeSet
	var devices []int
	for k := depth; k >= 1; k-- {
		e, ok := s.memo[stateKey{upset: upset.Key(), d: d, depth: k}]
		if !ok || !e.ok {
			return nil, fmt.Errorf("piper: reconstruction failed at depth %d", k)
		}
		ops = append(ops, e.stage)
		devices = append(devices, e.d1)
		upset = upset.Minus(e.stage)
		d -= e.d1
	}
	return strategy.SequentialChain(p.g, p.topo, "piper", miniBatch, s.b, ops, devices)
}
