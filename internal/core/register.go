package core

import (
	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
)

// registered adapts the core planner to the planner.Planner interface and
// registers it as "graphpipe".
type registered struct{}

func (registered) Name() string { return "graphpipe" }

func (registered) Plan(g *graph.Graph, topo *cluster.Topology, miniBatch int, opts planner.Options) (*strategy.Strategy, planner.Stats, error) {
	p, err := NewPlanner(g, opts.Model(topo), opts)
	if err != nil {
		return nil, planner.Stats{}, err
	}
	return p.Plan(miniBatch)
}

func init() { planner.Register(registered{}) }
