package piper

import (
	"errors"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/sim"
)

func TestPlanChainValid(t *testing.T) {
	g := models.SequentialTransformer(8)
	topo := cluster.NewSummitTopology(4)
	m := costmodel.NewDefault(topo)
	st, _, err := NewPlanner(g, m, planner.Options{}).Plan(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(g, topo); err != nil {
		t.Fatalf("invalid strategy: %v", err)
	}
	if st.Planner != "piper" {
		t.Errorf("planner tag = %q", st.Planner)
	}
	if st.Depth() != st.NumStages() {
		t.Errorf("Piper strategies are sequential: depth %d stages %d",
			st.Depth(), st.NumStages())
	}
}

func TestTwoBranchModelSolvable(t *testing.T) {
	cfg := models.DefaultMMTConfig()
	cfg.Branches = 2
	cfg.LayersPerBranch = 3
	g := models.MMT(cfg)
	topo := cluster.NewSummitTopology(4)
	m := costmodel.NewDefault(topo)
	st, _, err := NewPlanner(g, m, planner.Options{}).Plan(16)
	if err != nil {
		t.Fatalf("Piper should handle 2 branches: %v", err)
	}
	if err := st.Validate(g, topo); err != nil {
		t.Fatal(err)
	}
	// Piper's stages may span branches but the pipeline stays sequential.
	if st.Depth() != st.NumStages() {
		t.Error("Piper produced a non-sequential pipeline")
	}
}

// TestManyBranchesExplode reproduces Table 1's ✗: the downset lattice of a
// many-branch model exceeds any practical state budget.
func TestManyBranchesExplode(t *testing.T) {
	cfg := models.DefaultCANDLEUnoConfig() // 7 branches x 4 layers
	g := models.CANDLEUno(cfg)
	topo := cluster.NewSummitTopology(8)
	m := costmodel.NewDefault(topo)
	_, _, err := NewPlanner(g, m, planner.Options{StateBudget: 50_000}).Plan(64)
	if !errors.Is(err, ErrSearchExplosion) {
		t.Fatalf("want ErrSearchExplosion, got %v", err)
	}
}

func TestDLRMExplodes(t *testing.T) {
	g := models.DLRM(models.DefaultDLRMConfig()) // 14 branches
	topo := cluster.NewSummitTopology(4)
	m := costmodel.NewDefault(topo)
	_, _, err := NewPlanner(g, m, planner.Options{StateBudget: 50_000}).Plan(64)
	if !errors.Is(err, ErrSearchExplosion) {
		t.Fatalf("want ErrSearchExplosion, got %v", err)
	}
}

func TestForcedAndInvalidInputs(t *testing.T) {
	g := models.SequentialTransformer(6)
	topo := cluster.NewSummitTopology(2)
	m := costmodel.NewDefault(topo)
	if _, _, err := NewPlanner(g, m, planner.Options{}).Plan(0); err == nil {
		t.Error("accepted zero mini-batch")
	}
	if _, _, err := NewPlanner(g, m, planner.Options{ForcedMicroBatch: 5}).Plan(32); err == nil {
		t.Error("accepted non-dividing forced micro-batch")
	}
	st, _, err := NewPlanner(g, m, planner.Options{ForcedMicroBatch: 4}).Plan(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range st.Stages {
		if st.Config.MicroBatch != 4 {
			t.Errorf("micro-batch = %d", st.Config.MicroBatch)
		}
	}
}

func TestInfeasibleMemory(t *testing.T) {
	g := models.SequentialTransformer(6)
	topo := cluster.NewUniformTopology(2, 1e6, 100e9)
	if _, _, err := NewPlanner(g, costmodel.NewDefault(topo), planner.Options{}).Plan(16); err == nil {
		t.Error("planned into 1MB devices")
	}
}

func TestStrategySimulates(t *testing.T) {
	g := models.SequentialTransformer(8)
	topo := cluster.NewSummitTopology(4)
	m := costmodel.NewDefault(topo)
	st, _, err := NewPlanner(g, m, planner.Options{}).Plan(16)
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
