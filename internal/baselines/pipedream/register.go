package pipedream

import (
	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
)

// registered adapts the PipeDream baseline to the planner.Planner interface
// and registers it as "pipedream".
type registered struct{}

func (registered) Name() string { return "pipedream" }

func (registered) Plan(g *graph.Graph, topo *cluster.Topology, miniBatch int, opts planner.Options) (*strategy.Strategy, planner.Stats, error) {
	return NewPlanner(g, opts.Model(topo), opts).Plan(miniBatch)
}

func init() { planner.Register(registered{}) }
