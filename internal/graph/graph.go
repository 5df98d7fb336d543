// Package graph defines the computation-graph representation shared by all
// of GraphPipe's planners, schedulers, and runtimes.
//
// A computation graph G_C = (V_C, E_C) is a directed acyclic graph whose
// nodes are DNN operators annotated with per-sample compute and memory
// costs, and whose edges carry per-sample tensor sizes. All planners
// (GraphPipe's series-parallel DP as well as the PipeDream and Piper
// baselines) consume the same Graph type, so strategy quality differences
// are attributable to the planning algorithms alone.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies an operator within a Graph. IDs are dense, starting at
// zero, so planners can use them to index slices and bitsets.
type NodeID int

// OpKind classifies an operator. The cost model uses the kind to decide
// whether an operator is compute-bound (e.g. matmul-heavy attention) or
// memory-bound (e.g. embedding lookups, concatenation).
type OpKind int

// Operator kinds used by the model zoo.
const (
	OpInput OpKind = iota
	OpEmbedding
	OpLinear
	OpAttention
	OpLayerNorm
	OpConcat
	OpInteraction
	OpOutput
	OpElementwise
)

var opKindNames = [...]string{
	OpInput:       "input",
	OpEmbedding:   "embedding",
	OpLinear:      "linear",
	OpAttention:   "attention",
	OpLayerNorm:   "layernorm",
	OpConcat:      "concat",
	OpInteraction: "interaction",
	OpOutput:      "output",
	OpElementwise: "elementwise",
}

// String returns the lower-case name of the operator kind.
func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("opkind(%d)", int(k))
}

// Op is a single operator in the computation graph. All sizes are
// per-sample: the cost model scales them by the micro-batch size. Costs are
// stored rather than recomputed so that model builders can encode the exact
// hyperparameters from the paper's Appendix A.2.
type Op struct {
	ID   NodeID
	Name string
	Kind OpKind

	// FwdFLOPs is the number of floating-point operations needed by the
	// forward pass for one sample. The backward pass is modeled as
	// BwdFLOPs; for most trainable ops it is ~2x the forward cost.
	FwdFLOPs float64
	BwdFLOPs float64

	// ParamBytes is the total size of trainable parameters. Parameters are
	// replicated across data-parallel replicas of a stage.
	ParamBytes float64

	// ActivationBytes is the size of activations that must be retained per
	// sample between an operator's forward and backward pass.
	ActivationBytes float64

	// OutputBytes is the size of the operator's output tensor per sample;
	// it is the amount of data communicated if a consumer is placed in a
	// different pipeline stage.
	OutputBytes float64
}

// Edge is a directed data dependency between two operators.
type Edge struct {
	From, To NodeID
}

// Graph is an immutable-after-Build computation graph.
type Graph struct {
	name  string
	ops   []Op
	succ  [][]NodeID
	pred  [][]NodeID
	edges []Edge

	topo    []NodeID // cached topological order
	topoPos []int    // position of each node in topo
}

// Builder incrementally constructs a Graph. It is not safe for concurrent
// use.
type Builder struct {
	name  string
	ops   []Op
	edges []Edge
	seen  map[string]NodeID
}

// NewBuilder returns a Builder for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, seen: make(map[string]NodeID)}
}

// AddOp appends an operator and returns its assigned NodeID. Operator names
// must be unique within a graph; AddOp panics on a duplicate name because
// that is always a model-builder bug.
func (b *Builder) AddOp(op Op) NodeID {
	if op.Name == "" {
		op.Name = fmt.Sprintf("%s_%d", op.Kind, len(b.ops))
	}
	if _, dup := b.seen[op.Name]; dup {
		panic(fmt.Sprintf("graph: duplicate op name %q", op.Name))
	}
	id := NodeID(len(b.ops))
	op.ID = id
	b.ops = append(b.ops, op)
	b.seen[op.Name] = id
	return id
}

// Connect adds a directed edge from -> to.
func (b *Builder) Connect(from, to NodeID) {
	b.edges = append(b.edges, Edge{From: from, To: to})
}

// Chain connects ids sequentially: ids[0] -> ids[1] -> ... It is a
// convenience for the model zoo's layer stacks.
func (b *Builder) Chain(ids ...NodeID) {
	for i := 1; i < len(ids); i++ {
		b.Connect(ids[i-1], ids[i])
	}
}

// Build validates the accumulated ops and edges and returns the Graph.
// It returns an error if an edge references an unknown node, a duplicate
// edge exists, or the graph contains a cycle.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.ops)
	if n == 0 {
		return nil, errors.New("graph: empty graph")
	}
	g := &Graph{
		name: b.name,
		ops:  append([]Op(nil), b.ops...),
		succ: make([][]NodeID, n),
		pred: make([][]NodeID, n),
	}
	seen := make(map[Edge]bool, len(b.edges))
	for _, e := range b.edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("graph: edge %v references unknown node", e)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("graph: self-loop on node %d", e.From)
		}
		if seen[e] {
			return nil, fmt.Errorf("graph: duplicate edge %v", e)
		}
		seen[e] = true
		g.edges = append(g.edges, e)
		g.succ[e.From] = append(g.succ[e.From], e.To)
		g.pred[e.To] = append(g.pred[e.To], e.From)
	}
	topo, err := topoSort(n, g.succ, g.pred)
	if err != nil {
		return nil, err
	}
	g.topo = topo
	g.topoPos = make([]int, n)
	for i, v := range topo {
		g.topoPos[v] = i
	}
	return g, nil
}

// MustBuild is Build but panics on error; used by the model zoo whose
// construction errors are programming bugs.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func topoSort(n int, succ, pred [][]NodeID) ([]NodeID, error) {
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(pred[v])
	}
	// Kahn's algorithm with a sorted frontier for deterministic order.
	frontier := make([]NodeID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, NodeID(v))
		}
	}
	order := make([]NodeID, 0, n)
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		v := frontier[0]
		frontier = frontier[1:]
		order = append(order, v)
		for _, w := range succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				frontier = append(frontier, w)
			}
		}
	}
	if len(order) != n {
		return nil, errors.New("graph: cycle detected")
	}
	return order, nil
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// Len returns the number of operators.
func (g *Graph) Len() int { return len(g.ops) }

// Op returns the operator with the given id.
func (g *Graph) Op(id NodeID) Op { return g.ops[id] }

// Ops returns all operators in id order. The returned slice must not be
// modified.
func (g *Graph) Ops() []Op { return g.ops }

// Succ returns the successors of id. The returned slice must not be
// modified.
func (g *Graph) Succ(id NodeID) []NodeID { return g.succ[id] }

// Pred returns the predecessors of id. The returned slice must not be
// modified.
func (g *Graph) Pred(id NodeID) []NodeID { return g.pred[id] }

// Edges returns all edges. The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Topo returns a deterministic topological order of all nodes. The returned
// slice must not be modified.
func (g *Graph) Topo() []NodeID { return g.topo }

// TopoPos returns the position of id in the topological order returned by
// Topo.
func (g *Graph) TopoPos(id NodeID) int { return g.topoPos[id] }

// Sources returns all nodes with no predecessors, in id order.
func (g *Graph) Sources() []NodeID {
	var out []NodeID
	for v := range g.ops {
		if len(g.pred[v]) == 0 {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// Sinks returns all nodes with no successors, in id order.
func (g *Graph) Sinks() []NodeID {
	var out []NodeID
	for v := range g.ops {
		if len(g.succ[v]) == 0 {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// String renders a compact multi-line description, useful in tests.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %q: %d ops, %d edges\n", g.name, len(g.ops), len(g.edges))
	for _, v := range g.topo {
		op := g.ops[v]
		fmt.Fprintf(&sb, "  [%d] %s (%s) ->", v, op.Name, op.Kind)
		for _, w := range g.succ[v] {
			fmt.Fprintf(&sb, " %d", w)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
