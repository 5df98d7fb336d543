package piper

import (
	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
)

// registered adapts the Piper baseline to the planner.Planner interface and
// registers it as "piper".
type registered struct{}

func (registered) Name() string { return "piper" }

func (registered) Plan(g *graph.Graph, topo *cluster.Topology, miniBatch int, opts planner.Options) (*strategy.Strategy, planner.Stats, error) {
	return NewPlanner(g, opts.Model(topo), opts).Plan(miniBatch)
}

func init() { planner.Register(registered{}) }
