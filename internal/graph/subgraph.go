package graph

// Costs aggregates the per-sample cost of a set of operators. It is the
// quantity planners balance across pipeline stages.
type Costs struct {
	FwdFLOPs        float64
	BwdFLOPs        float64
	ParamBytes      float64
	ActivationBytes float64
}

// Add accumulates the costs of op into c.
func (c *Costs) Add(op Op) {
	c.FwdFLOPs += op.FwdFLOPs
	c.BwdFLOPs += op.BwdFLOPs
	c.ParamBytes += op.ParamBytes
	c.ActivationBytes += op.ActivationBytes
}

// SubgraphCosts sums the costs of all operators in set.
func (g *Graph) SubgraphCosts(set NodeSet) Costs {
	var c Costs
	for _, id := range set.IDs() {
		c.Add(g.ops[id])
	}
	return c
}

// CutBytes returns the per-sample bytes flowing across the directed cut
// from `from` to `to`: the sum of OutputBytes of every producer in `from`
// with at least one edge into `to`. Each producer is counted once per
// consuming stage (the tensor is sent once per consumer stage, matching
// point-to-point activation transfers).
func (g *Graph) CutBytes(from, to NodeSet) float64 {
	var total float64
	for _, v := range from.IDs() {
		sent := false
		for _, w := range g.succ[v] {
			if to.Contains(w) {
				sent = true
				break
			}
		}
		if sent {
			total += g.ops[v].OutputBytes
		}
	}
	return total
}

// HasEdgeBetween reports whether any edge runs from a node of `from` to a
// node of `to`.
func (g *Graph) HasEdgeBetween(from, to NodeSet) bool {
	for _, v := range from.IDs() {
		for _, w := range g.succ[v] {
			if to.Contains(w) {
				return true
			}
		}
	}
	return false
}

// AllNodes returns the set of every node in g.
func (g *Graph) AllNodes() NodeSet {
	s := NewNodeSet(g.Len())
	for v := 0; v < g.Len(); v++ {
		s.Add(NodeID(v))
	}
	return s
}
