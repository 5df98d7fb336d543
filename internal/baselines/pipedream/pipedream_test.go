package pipedream

import (
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/sim"
	"graphpipe/internal/strategy"
)

func plan(t testing.TB, devices, mini int, opts planner.Options) *strategy.Strategy {
	t.Helper()
	g := models.SequentialTransformer(8)
	topo := cluster.NewSummitTopology(devices)
	st, _, err := NewPlanner(g, costmodel.NewDefault(topo), opts).Plan(mini)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return st
}

func TestPlanChainValid(t *testing.T) {
	g := models.SequentialTransformer(8)
	topo := cluster.NewSummitTopology(4)
	m := costmodel.NewDefault(topo)
	st, stats, err := NewPlanner(g, m, planner.Options{}).Plan(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(g, topo); err != nil {
		t.Fatalf("invalid strategy: %v", err)
	}
	if st.Planner != "pipedream" {
		t.Errorf("planner tag = %q", st.Planner)
	}
	// Sequential: depth equals stage count.
	if st.Depth() != st.NumStages() {
		t.Errorf("depth %d != stages %d", st.Depth(), st.NumStages())
	}
	if stats.DPStates == 0 || stats.BottleneckTPS <= 0 {
		t.Errorf("stats missing: %+v", stats)
	}
}

// TestSPPStaysSequentialOnBranches is the defining property of the
// baseline: even on a multi-branch model, PipeDream's strategies form a
// strict chain (Figure 2 top), so depth always equals stage count.
func TestSPPStaysSequentialOnBranches(t *testing.T) {
	cfg := models.DefaultMMTConfig()
	cfg.Branches = 2
	cfg.LayersPerBranch = 4
	g := models.MMT(cfg)
	topo := cluster.NewSummitTopology(8)
	m := costmodel.NewDefault(topo)
	st, _, err := NewPlanner(g, m, planner.Options{}).Plan(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(g, topo); err != nil {
		t.Fatal(err)
	}
	if st.Depth() != st.NumStages() {
		t.Errorf("SPP produced non-sequential pipeline: depth %d, stages %d",
			st.Depth(), st.NumStages())
	}
	// 1F1B in-flight counts decrease along the chain.
	for i := 1; i < st.NumStages(); i++ {
		if st.Stages[i].InFlightSamples > st.Stages[i-1].InFlightSamples {
			t.Errorf("in-flight not monotone along chain: stage %d", i)
		}
	}
}

func TestUsesAllDevices(t *testing.T) {
	used := 0
	for _, st := range plan(t, 4, 32, planner.Options{}).Stages {
		used += len(st.Devices)
	}
	if used != 4 {
		t.Errorf("devices used = %d, want 4", used)
	}
}

func TestForcedMicroBatch(t *testing.T) {
	for _, st := range plan(t, 4, 32, planner.Options{ForcedMicroBatch: 4}).Stages {
		if st.Config.MicroBatch != 4 {
			t.Errorf("micro-batch = %d, want 4", st.Config.MicroBatch)
		}
	}
	g := models.SequentialTransformer(8)
	topo := cluster.NewSummitTopology(4)
	if _, _, err := NewPlanner(g, costmodel.NewDefault(topo), planner.Options{ForcedMicroBatch: 5}).Plan(32); err == nil {
		t.Error("accepted non-dividing forced micro-batch")
	}
}

func TestInvalidMiniBatch(t *testing.T) {
	g := models.SequentialTransformer(4)
	topo := cluster.NewSummitTopology(2)
	if _, _, err := NewPlanner(g, costmodel.NewDefault(topo), planner.Options{}).Plan(0); err == nil {
		t.Error("accepted zero mini-batch")
	}
}

func TestInfeasibleMemory(t *testing.T) {
	g := models.SequentialTransformer(8)
	topo := cluster.NewUniformTopology(4, 1e6, 100e9)
	if _, _, err := NewPlanner(g, costmodel.NewDefault(topo), planner.Options{}).Plan(32); err == nil {
		t.Error("planned into 1MB devices")
	}
}

func TestStrategySimulates(t *testing.T) {
	g := models.SequentialTransformer(8)
	topo := cluster.NewSummitTopology(4)
	m := costmodel.NewDefault(topo)
	st, _, err := NewPlanner(g, m, planner.Options{}).Plan(32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.New(g, m).Run(st)
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if res.Throughput <= 0 {
		t.Error("no throughput")
	}
}
