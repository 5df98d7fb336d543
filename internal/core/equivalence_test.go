package core

import (
	"bytes"
	"fmt"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	"graphpipe/internal/strategy"
)

// reuseCase is one (model, devices) cell of the cross-probe-reuse
// equivalence matrix: every planner-relevant evaluation model at the
// paper's smallest and largest cluster sizes.
type reuseCase struct {
	name    string
	build   func() *graph.Graph
	devices int
	// miniBatch for the cell. The 32-device cells use reduced mini-batch
	// sizes (a shorter candidate ladder than the paper's Appendix A.2
	// pairing) so the reference path — a fresh memo per probe, sequential —
	// stays affordable under -race; the DP itself still partitions the full
	// model over 32 devices.
	miniBatch int
}

func reuseCases() []reuseCase {
	mmt := func() *graph.Graph { return models.MMT(models.DefaultMMTConfig()) }
	mmt2b := func() *graph.Graph {
		cfg := models.DefaultMMTConfig()
		cfg.Branches = 2
		return models.MMT(cfg)
	}
	dlrm := func() *graph.Graph { return models.DLRM(models.DefaultDLRMConfig()) }
	candle := func() *graph.Graph { return models.CANDLEUno(models.DefaultCANDLEUnoConfig()) }
	return []reuseCase{
		{"mmt", mmt, 4, 64},
		{"mmt", mmt, 32, 256},
		{"mmt-2b", mmt2b, 4, 64},
		{"mmt-2b", mmt2b, 32, 256},
		{"dlrm", dlrm, 4, 256},
		{"dlrm", dlrm, 32, 512},
		{"candle-uno", candle, 4, 4096},
		{"candle-uno", candle, 32, 4096},
	}
}

// planArtifact plans g and renders the result as a serialized artifact with
// provenance stripped of search statistics, so two planning paths that find
// the same strategy produce byte-identical artifacts.
func planArtifact(t *testing.T, g *graph.Graph, c reuseCase, opts planner.Options) ([]byte, *result) {
	t.Helper()
	topo := cluster.NewSummitTopology(c.devices)
	p, err := NewPlanner(g, costmodel.NewDefault(topo), opts)
	if err != nil {
		t.Fatalf("%s/%d: NewPlanner: %v", c.name, c.devices, err)
	}
	r, err := plan(p, c.miniBatch)
	if err != nil {
		t.Fatalf("%s/%d: Plan: %v", c.name, c.devices, err)
	}
	data, err := strategy.EncodeArtifact(&strategy.Artifact{
		Model:     c.name,
		Devices:   c.devices,
		MiniBatch: c.miniBatch,
		Planner:   strategy.PlannerMeta{Name: "graphpipe"},
		Strategy:  r.Strategy,
	})
	if err != nil {
		t.Fatalf("%s/%d: EncodeArtifact: %v", c.name, c.devices, err)
	}
	return data, r
}

// TestCrossProbeReuseEquivalence pins the tentpole's correctness claim: the
// probe-spanning memo with monotone validity intervals returns exactly the
// strategy of the reference search (a fresh memo per probe, Workers=1) on
// every planner-relevant model × {4, 32} devices, while recomputing
// strictly fewer DP states.
func TestCrossProbeReuseEquivalence(t *testing.T) {
	for _, c := range reuseCases() {
		c := c
		t.Run(fmt.Sprintf("%s-%ddev", c.name, c.devices), func(t *testing.T) {
			if testing.Short() && c.devices > 4 {
				t.Skip("32-device cells skipped in -short mode")
			}
			g := c.build()
			refArt, ref := planArtifact(t, g, c, planner.Options{Workers: 1, FreshProbeMemo: true})
			optArt, opt := planArtifact(t, g, c, planner.Options{Workers: 1})
			if !bytes.Equal(refArt, optArt) {
				t.Errorf("artifacts differ between fresh-memo reference and cross-probe reuse:\nref:\n%s\nopt:\n%s",
					refArt, optArt)
			}
			if opt.DPStates >= ref.DPStates {
				t.Errorf("reuse did not reduce DP states: %d (reuse) vs %d (reference)",
					opt.DPStates, ref.DPStates)
			}
			if opt.BinaryIters != ref.BinaryIters {
				t.Errorf("binary-search trajectory diverged: %d iters (reuse) vs %d (reference)",
					opt.BinaryIters, ref.BinaryIters)
			}
			t.Logf("%s/%d: DP states %d -> %d (%.1fx fewer)",
				c.name, c.devices, ref.DPStates, opt.DPStates,
				float64(ref.DPStates)/float64(opt.DPStates))
		})
	}
}
