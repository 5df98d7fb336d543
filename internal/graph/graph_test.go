package graph

import (
	"strings"
	"testing"
)

// diamond builds the 4-node graph a -> {b, c} -> d.
func diamond(t testing.TB) (*Graph, NodeID, NodeID, NodeID, NodeID) {
	t.Helper()
	b := NewBuilder("diamond")
	a := b.AddOp(Op{Name: "a", Kind: OpInput, OutputBytes: 8})
	l := b.AddOp(Op{Name: "b", Kind: OpLinear, FwdFLOPs: 100, BwdFLOPs: 200, ParamBytes: 40, ActivationBytes: 16, OutputBytes: 8})
	r := b.AddOp(Op{Name: "c", Kind: OpLinear, FwdFLOPs: 300, BwdFLOPs: 600, ParamBytes: 80, ActivationBytes: 32, OutputBytes: 8})
	d := b.AddOp(Op{Name: "d", Kind: OpConcat, FwdFLOPs: 10, BwdFLOPs: 10, OutputBytes: 16})
	b.Connect(a, l)
	b.Connect(a, r)
	b.Connect(l, d)
	b.Connect(r, d)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, a, l, r, d
}

func TestBuildBasics(t *testing.T) {
	g, a, l, r, d := diamond(t)
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	if got := g.Op(l).Name; got != "b" {
		t.Errorf("Op(b).Name = %q", got)
	}
	if len(g.Succ(a)) != 2 || len(g.Pred(d)) != 2 {
		t.Errorf("fanout/fanin wrong: succ(a)=%v pred(d)=%v", g.Succ(a), g.Pred(d))
	}
	if srcs := g.Sources(); len(srcs) != 1 || srcs[0] != a {
		t.Errorf("Sources = %v, want [%d]", srcs, a)
	}
	if sinks := g.Sinks(); len(sinks) != 1 || sinks[0] != d {
		t.Errorf("Sinks = %v, want [%d]", sinks, d)
	}
	_ = r
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g, _, _, _, _ := diamond(t)
	pos := make(map[NodeID]int)
	for i, v := range g.Topo() {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %v violates topo order", e)
		}
	}
	for v := 0; v < g.Len(); v++ {
		if g.TopoPos(NodeID(v)) != pos[NodeID(v)] {
			t.Errorf("TopoPos(%d) mismatch", v)
		}
	}
}

func TestBuildRejectsCycle(t *testing.T) {
	b := NewBuilder("cycle")
	x := b.AddOp(Op{Name: "x"})
	y := b.AddOp(Op{Name: "y"})
	b.Connect(x, y)
	b.Connect(y, x)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a cyclic graph")
	}
}

func TestBuildRejectsSelfLoop(t *testing.T) {
	b := NewBuilder("self")
	x := b.AddOp(Op{Name: "x"})
	b.Connect(x, x)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a self-loop")
	}
}

func TestBuildRejectsDuplicateEdge(t *testing.T) {
	b := NewBuilder("dup")
	x := b.AddOp(Op{Name: "x"})
	y := b.AddOp(Op{Name: "y"})
	b.Connect(x, y)
	b.Connect(x, y)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a duplicate edge")
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := NewBuilder("empty").Build(); err == nil {
		t.Fatal("Build accepted an empty graph")
	}
}

func TestBuildRejectsBadEdge(t *testing.T) {
	b := NewBuilder("bad")
	x := b.AddOp(Op{Name: "x"})
	b.Connect(x, NodeID(99))
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted an edge to an unknown node")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddOp did not panic on duplicate name")
		}
	}()
	b := NewBuilder("dupname")
	b.AddOp(Op{Name: "x"})
	b.AddOp(Op{Name: "x"})
}

func TestChain(t *testing.T) {
	b := NewBuilder("chain")
	var ids []NodeID
	for i := 0; i < 5; i++ {
		ids = append(ids, b.AddOp(Op{Kind: OpLinear}))
	}
	b.Chain(ids...)
	g := b.MustBuild()
	if len(g.Edges()) != 4 {
		t.Fatalf("Chain produced %d edges, want 4", len(g.Edges()))
	}
	for i := 0; i+1 < len(ids); i++ {
		found := false
		for _, w := range g.Succ(ids[i]) {
			if w == ids[i+1] {
				found = true
			}
		}
		if !found {
			t.Errorf("missing chain edge %d -> %d", ids[i], ids[i+1])
		}
	}
}

func TestAggregateCosts(t *testing.T) {
	g, _, l, r, _ := diamond(t)
	c := g.SubgraphCosts(NodeSetOf(l, r))
	want := Costs{FwdFLOPs: 400, BwdFLOPs: 800, ParamBytes: 120, ActivationBytes: 48}
	if c != want {
		t.Errorf("SubgraphCosts = %+v, want %+v", c, want)
	}
}

func TestCutBytes(t *testing.T) {
	g, a, l, r, d := diamond(t)
	// a sends one 8-byte output that feeds both branches: counted once for
	// the cut a -> {b,c}.
	if got := g.CutBytes(NodeSetOf(a), NodeSetOf(l, r)); got != 8 {
		t.Errorf("CutBytes(a, {b,c}) = %v, want 8", got)
	}
	// Both branches feed d.
	if got := g.CutBytes(NodeSetOf(l, r), NodeSetOf(d)); got != 16 {
		t.Errorf("CutBytes({b,c}, d) = %v, want 16", got)
	}
	if !g.HasEdgeBetween(NodeSetOf(a), NodeSetOf(l)) {
		t.Error("HasEdgeBetween(a, b) = false")
	}
	if g.HasEdgeBetween(NodeSetOf(l), NodeSetOf(r)) {
		t.Error("HasEdgeBetween(b, c) = true, want false")
	}
}

func TestStringAndDOT(t *testing.T) {
	g, _, _, _, _ := diamond(t)
	s := g.String()
	if !strings.Contains(s, "diamond") || !strings.Contains(s, "4 ops") {
		t.Errorf("String missing header: %q", s)
	}
}

func TestOpKindString(t *testing.T) {
	if OpLinear.String() != "linear" {
		t.Errorf("OpLinear.String() = %q", OpLinear.String())
	}
	if got := OpKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind String() = %q", got)
	}
}
