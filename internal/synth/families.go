package synth

import (
	"fmt"
	"math"

	"graphpipe/internal/graph"
	"graphpipe/internal/spgraph"
)

// A family resolves a spec's unset knobs into its own ranges and builds
// the graph from the fully resolved spec. Ranges are chosen so every
// generated model is (1) series-parallel by construction, (2) small
// enough that the exhaustive Piper baseline completes — the conformance
// corpus runs every registered planner — and (3) memory-feasible on the
// default Summit topology at the corpus's 2–8 device counts.
type family struct {
	resolve func(s Spec) Spec
	// ops bounds the operator count build emits for a resolved spec,
	// computed from the knobs alone. It may stop counting once past
	// MaxOps, so no knob product can overflow.
	ops   func(s Spec) int
	build func(s Spec, b *graph.Builder)
}

// MaxOps bounds the operators of a generated graph. Resolve rejects a spec
// whose knobs would build more, before anything is allocated: spec strings
// arrive over the network, and each knob alone stays below 2^16 while the
// nested family doubles per level. Every family's derivation range, the
// load population and the conformance corpus stay far below it.
const MaxOps = 1 << 10

// branchOps counts a branches-wide family: one merge, one head, and per
// branch an input plus up to perBranch layers.
func branchOps(branches, perBranch int) int { return 2 + branches*(1+perBranch) }

var families = map[string]family{
	// chain: a deep sequential stack — the degenerate SP shape every SPP
	// baseline was designed for. Exercises series splits only.
	"chain": {
		resolve: func(s Spec) Spec {
			s.Depth = resolveInt(s, "depth", s.Depth, 8, 24)
			s.Branches = 1
			s.Skew = 0
			s.Nesting = 0
			return s
		},
		ops:   func(s Spec) int { return s.Depth + 2 },
		build: buildChain,
	},
	// fanout: many short independent branches merged by one concat — the
	// wide-GPP shape (DLRM-like) that defeats strictly sequential
	// pipelines. Exercises parallel and sink-anchored splits.
	"fanout": {
		resolve: func(s Spec) Spec {
			s.Branches = resolveInt(s, "branches", s.Branches, 3, 6)
			s.Depth = resolveInt(s, "depth", s.Depth, 1, 3)
			s.Skew = 0
			s.Nesting = 0
			return s
		},
		ops:   func(s Spec) int { return branchOps(s.Branches, s.Depth) },
		build: buildBranches,
	},
	// skew: parallel branches with deliberately imbalanced per-branch
	// cost and depth, so balanced partitions must cut branches unevenly.
	"skew": {
		resolve: func(s Spec) Spec {
			s.Branches = resolveInt(s, "branches", s.Branches, 2, 4)
			s.Depth = resolveInt(s, "depth", s.Depth, 2, 4)
			if s.Skew == 0 {
				s.Skew = roundSkew(newRNG(s.Seed, "skew/skew").floatBetween(0.5, 4))
			}
			s.Nesting = 0
			return s
		},
		// Depth jitter adds up to one layer per branch.
		ops:   func(s Spec) int { return branchOps(s.Branches, s.Depth+1) },
		build: buildBranches,
	},
	// nested: recursively nested series-parallel blocks (forks inside
	// forks), the shape that stresses the decomposer's recursion and the
	// DP's zone table rather than its width.
	"nested": {
		resolve: func(s Spec) Spec {
			s.Nesting = resolveInt(s, "nesting", s.Nesting, 2, 3)
			s.Depth = resolveInt(s, "depth", s.Depth, 1, 2)
			s.Branches = 2
			s.Skew = 0
			return s
		},
		ops:   nestedOps,
		build: buildNested,
	},
	// mixed: multimodal-like heterogeneous branches — compute-bound
	// attention stacks next to memory-bound embedding towers — where
	// per-branch compute-efficiency sweet spots differ (§6).
	"mixed": {
		resolve: func(s Spec) Spec {
			s.Branches = resolveInt(s, "branches", s.Branches, 3, 5)
			s.Depth = resolveInt(s, "depth", s.Depth, 1, 3)
			s.Skew = 0
			s.Nesting = 0
			return s
		},
		ops:   func(s Spec) int { return branchOps(s.Branches, s.Depth) },
		build: buildMixed,
	},
}

// nestedOps counts buildNested's operators: an input and a head around a
// block, where a level-0 block is Depth operators and a level-L block is
// Branches level-(L−1) blocks plus their join. The count stops growing once
// it passes MaxOps.
func nestedOps(s Spec) int {
	n := s.Depth
	for level := 0; level < s.Nesting && n <= MaxOps; level++ {
		n = s.Branches*n + 1
	}
	return n + 2
}

// resolveInt keeps an explicitly set knob and otherwise draws it from
// the knob's own salted stream, so pinning one knob never changes what
// the seed derives for another.
func resolveInt(s Spec, knob string, set, lo, hi int) int {
	if set != 0 {
		return set
	}
	return newRNG(s.Seed, s.Family+"/"+knob).intBetween(lo, hi)
}

// roundSkew quantizes a derived skew to two decimals so the canonical
// spec string stays short and round-trips exactly.
func roundSkew(f float64) float64 {
	return float64(int(f*100+0.5)) / 100
}

// Resolve fills every unset knob of the spec deterministically from the
// seed and normalizes knobs the family does not use. Resolution is
// idempotent: Resolve(Resolve(s)) == Resolve(s), and the resolved
// spec's String() rebuilds the identical graph even if the derivation
// ranges above change in a future version.
//
// Explicit knobs are range-checked here — the one funnel every entry
// point (Parse, CLI flags, Spec literals) passes through — so an
// out-of-range pin fails loudly instead of generating a spec string
// Parse would reject (or, for negative or NaN skew, invalid operator
// costs). The resolved spec's operator count is checked against MaxOps
// here too, before Generate allocates anything.
func Resolve(s Spec) (Spec, error) {
	fam, ok := families[s.Family]
	if !ok {
		return Spec{}, fmt.Errorf("synth: unknown family %q (known: %v)", s.Family, Families())
	}
	for _, knob := range []struct {
		name string
		val  int
	}{{"depth", s.Depth}, {"branches", s.Branches}, {"nesting", s.Nesting}} {
		if knob.val != 0 && (knob.val < 1 || knob.val > 1<<16) {
			return Spec{}, fmt.Errorf("synth: %s %d out of range [1, %d]", knob.name, knob.val, 1<<16)
		}
	}
	if math.IsNaN(s.Skew) || s.Skew < 0 || s.Skew > 64 {
		return Spec{}, fmt.Errorf("synth: skew %g out of range [0, 64]", s.Skew)
	}
	rs := fam.resolve(s)
	if n := fam.ops(rs); n > MaxOps {
		return Spec{}, fmt.Errorf("synth: %s would build more than %d operators", rs, MaxOps)
	}
	return rs, nil
}

// Generate builds the computation graph of a spec, returning the graph
// and the fully resolved spec. The graph's name is the resolved spec's
// canonical string, so anything that records g.Name() — experiment CSV
// rows, artifact metadata — records enough to regenerate the graph.
func Generate(s Spec) (*graph.Graph, Spec, error) {
	rs, err := Resolve(s)
	if err != nil {
		return nil, Spec{}, err
	}
	b := graph.NewBuilder(rs.String())
	families[rs.Family].build(rs, b)
	g, err := b.Build()
	if err != nil {
		return nil, Spec{}, fmt.Errorf("synth: %s: %v", rs, err)
	}
	if err := spgraph.Validate(g); err != nil {
		return nil, Spec{}, fmt.Errorf("synth: %s: generated graph fails structural validation: %v", rs, err)
	}
	return g, rs, nil
}

// --- cost sampling ---

// opCosts draws one operator's per-sample costs. The ranges bracket the
// paper models' operators (a CANDLE feed-forward layer is ~3e7 FLOPs
// and 67 MB of weights; an MMT transformer layer ~2.5e9 FLOPs and
// 25 MB), scaled by the family's per-branch skew multiplier. Weight
// state (4x params) across a whole graph stays well under one V100's
// 16 GB, so every generated model is feasible even as a single stage.
func opCosts(r *rng, kind graph.OpKind, scale float64) graph.Op {
	op := graph.Op{Kind: kind}
	switch kind {
	case graph.OpEmbedding:
		// Memory-bound: tiny FLOPs, large tables, bandwidth-limited.
		op.FwdFLOPs = r.floatBetween(1e4, 1e6) * scale
		op.ParamBytes = r.floatBetween(5e7, 2e8)
		op.ActivationBytes = r.floatBetween(1e4, 1e5)
		op.OutputBytes = op.ActivationBytes
	case graph.OpAttention:
		op.FwdFLOPs = r.floatBetween(5e8, 4e9) * scale
		op.ParamBytes = r.floatBetween(1e7, 4e7)
		op.ActivationBytes = r.floatBetween(2e5, 2e6)
		op.OutputBytes = r.floatBetween(1e5, 6e5)
	default: // linear / elementwise compute ops
		op.FwdFLOPs = r.floatBetween(1e8, 1e9) * scale
		op.ParamBytes = r.floatBetween(4e6, 4e7)
		op.ActivationBytes = r.floatBetween(1e5, 1e6)
		op.OutputBytes = r.floatBetween(5e4, 3e5)
	}
	return op
}

// branchScale returns branch br's cost multiplier under the spec's
// skew: branch 0 is the baseline, the last branch costs (1 + Skew)x.
func branchScale(s Spec, br int) float64 {
	if s.Skew == 0 || s.Branches <= 1 {
		return 1
	}
	return 1 + s.Skew*float64(br)/float64(s.Branches-1)
}

// inputOp returns a zero-cost source operator feeding a branch.
func inputOp(name string) graph.Op {
	return graph.Op{Name: name, Kind: graph.OpInput, OutputBytes: 1e5}
}

// headOp returns the single sink every family ends in (spgraph.Validate
// requires one global sink; training has one loss).
func headOp(r *rng) graph.Op {
	op := opCosts(r, graph.OpLinear, 1)
	op.Name = "head"
	op.Kind = graph.OpOutput
	return op
}

// --- family builders ---

func buildChain(s Spec, b *graph.Builder) {
	r := newRNG(s.Seed, "chain/costs")
	prev := b.AddOp(inputOp("input"))
	for i := 0; i < s.Depth; i++ {
		kind := graph.OpLinear
		if r.intBetween(0, 2) == 0 {
			kind = graph.OpAttention
		}
		op := opCosts(r, kind, 1)
		op.Name = fmt.Sprintf("layer%d", i)
		id := b.AddOp(op)
		b.Connect(prev, id)
		prev = id
	}
	b.Connect(prev, b.AddOp(headOp(r)))
}

// buildBranches covers the fanout and skew families: Branches parallel
// chains, with per-branch cost scale (and, under skew, ±1 layer of
// per-branch depth jitter), merged by a concat feeding the head.
func buildBranches(s Spec, b *graph.Builder) {
	r := newRNG(s.Seed, s.Family+"/costs")
	concat := opCosts(r, graph.OpConcat, 1)
	concat.Name = "concat"
	concat.FwdFLOPs = 1e6 // merges are cheap; the branches dominate
	concatID := b.AddOp(concat)
	for br := 0; br < s.Branches; br++ {
		depth := s.Depth
		if s.Skew > 0 && s.Depth > 1 {
			depth += r.intBetween(-1, 1)
		}
		scale := branchScale(s, br)
		prev := b.AddOp(inputOp(fmt.Sprintf("br%d_input", br)))
		for l := 0; l < depth; l++ {
			op := opCosts(r, graph.OpLinear, scale)
			op.Name = fmt.Sprintf("br%d_layer%d", br, l)
			id := b.AddOp(op)
			b.Connect(prev, id)
			prev = id
		}
		b.Connect(prev, concatID)
	}
	b.Connect(concatID, b.AddOp(headOp(r)))
}

// buildNested emits a recursive series-parallel block: at each nesting
// level a block is either a fork of two sub-blocks joined by a merge
// operator, or (at level 0) a chain segment of Depth operators. The
// fork/join structure is exactly the shape the decomposer's series and
// parallel splits must interleave on.
func buildNested(s Spec, b *graph.Builder) {
	r := newRNG(s.Seed, "nested/costs")
	n := 0
	name := func(prefix string) string {
		n++
		return fmt.Sprintf("%s%d", prefix, n-1)
	}
	// block emits a sub-DAG between an entry source and a returned exit
	// node, recursing level times.
	var block func(level int, entry graph.NodeID) graph.NodeID
	block = func(level int, entry graph.NodeID) graph.NodeID {
		if level == 0 {
			prev := entry
			for i := 0; i < s.Depth; i++ {
				op := opCosts(r, graph.OpLinear, 1)
				op.Name = name("seg")
				id := b.AddOp(op)
				b.Connect(prev, id)
				prev = id
			}
			return prev
		}
		join := opCosts(r, graph.OpConcat, 1)
		join.Name = name("join")
		join.FwdFLOPs = 1e6
		joinID := b.AddOp(join)
		for br := 0; br < s.Branches; br++ {
			b.Connect(block(level-1, entry), joinID)
		}
		return joinID
	}
	in := b.AddOp(inputOp("input"))
	exit := block(s.Nesting, in)
	b.Connect(exit, b.AddOp(headOp(r)))
}

// buildMixed emits heterogeneous branches — per-branch operator kinds
// drawn from {attention, linear, embedding} — fused and finished by a
// head, the generalist-model shape where per-stage micro-batch sizes
// pay off.
func buildMixed(s Spec, b *graph.Builder) {
	r := newRNG(s.Seed, "mixed/costs")
	fusion := opCosts(r, graph.OpInteraction, 1)
	fusion.Name = "fusion"
	fusion.FwdFLOPs = 1e6
	fusionID := b.AddOp(fusion)
	kinds := []graph.OpKind{graph.OpAttention, graph.OpLinear, graph.OpEmbedding}
	for br := 0; br < s.Branches; br++ {
		kind := kinds[r.intBetween(0, len(kinds)-1)]
		depth := s.Depth
		if kind == graph.OpEmbedding {
			depth = 1 // towers are single lookups, as in DLRM/generalist
		}
		prev := b.AddOp(inputOp(fmt.Sprintf("br%d_input", br)))
		for l := 0; l < depth; l++ {
			op := opCosts(r, kind, 1)
			op.Name = fmt.Sprintf("br%d_%s%d", br, kind, l)
			id := b.AddOp(op)
			b.Connect(prev, id)
			prev = id
		}
		b.Connect(prev, fusionID)
	}
	b.Connect(fusionID, b.AddOp(headOp(r)))
}
