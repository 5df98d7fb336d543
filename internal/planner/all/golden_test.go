package all_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/memosnap"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
	_ "graphpipe/internal/planner/all"
	"graphpipe/internal/strategy"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/*.golden from this run's plans")

// goldenCells are the (model, devices) questions whose plans are pinned:
// one paper model per regime the planners distinguish (intra-node,
// inter-node, many-branch) and one seed per synth family.
var goldenCells = []struct {
	model   string
	devices int
}{
	{"candle-uno", 4},
	{"mmt", 8},
	{"dlrm", 8},
	{"synth:chain/seed=1", 4},
	{"synth:fanout/seed=1", 4},
	{"synth:skew/seed=1", 4},
	{"synth:nested/seed=1", 4},
	{"synth:mixed/seed=1", 4},
}

// TestArtifactGolden pins every registered planner's artifact bytes —
// strategy, search statistics and metadata, as the planning service
// encodes them — on each golden cell, so a refactor of the search or of
// the option plumbing cannot move a plan. A failing search (Piper's ✗)
// pins its error text instead.
func TestArtifactGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("plans paper models")
	}
	var out strings.Builder
	for _, name := range planner.Names() {
		pl, err := planner.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range goldenCells {
			g, miniBatch, err := models.Build(c.model, 0, c.devices)
			if err != nil {
				t.Fatal(err)
			}
			topo := cluster.NewSummitTopology(c.devices)
			opts := planner.Options{Workers: 1}
			if name == "piper" && c.model == "mmt" {
				// Piper's MMT lattice exhausts memory long before the
				// default budget runs out (Table 1's ✗); a small budget
				// pins the explosion path and the budget's plumbing.
				opts.StateBudget = 1_000_000
			}
			fmt.Fprintf(&out, "%s %s@%d B=%d budget=%d: ", name, g.Name(), c.devices, miniBatch, opts.StateBudget)
			st, stats, err := pl.Plan(g, topo, miniBatch, opts)
			if err != nil {
				fmt.Fprintf(&out, "error %q\n", err)
				continue
			}
			data, err := strategy.EncodeArtifact(&strategy.Artifact{
				Model:     g.Name(),
				Devices:   c.devices,
				MiniBatch: miniBatch,
				Planner: strategy.PlannerMeta{
					Name:        name,
					DPStates:    stats.DPStates,
					BinaryIters: stats.BinaryIters,
				},
				Strategy: st,
			})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "stages=%d depth=%d micro=%d tps=%x bytes=%d sha256=%x\n",
				st.NumStages(), st.Depth(), st.Stages[0].Config.MicroBatch,
				math.Float64bits(stats.BottleneckTPS), len(data), sha256.Sum256(data))
		}
	}
	checkGolden(t, "artifacts.golden", out.String())
}

// TestMemoKeyGolden pins graphpipe's memo snapshot key for the paper
// models and for each result-relevant option: snapshots a running fleet
// already persisted are found by this key, so a change to how it is
// computed silently turns every warm replan cold.
func TestMemoKeyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("plans paper models")
	}
	pl, err := planner.Get("graphpipe")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		model   string
		devices int
		label   string
		opts    planner.Options
	}{
		{"candle-uno", 4, "default", planner.Options{}},
		{"mmt", 8, "default", planner.Options{}},
		{"dlrm", 8, "default", planner.Options{}},
		{"case-study", 4, "default", planner.Options{}},
		{"case-study", 4, "max-micro=8", planner.Options{MaxMicroBatch: 8}},
		{"case-study", 4, "forced-micro=16", planner.Options{ForcedMicroBatch: 16}},
		{"case-study", 4, "per-stage", planner.Options{PerStageMicroBatch: true}},
		{"case-study", 4, "no-anchored", planner.Options{DisableSinkAnchoredSplits: true}},
		{"case-study", 4, "oblivious", planner.Options{PlacementOblivious: true}},
	}
	var out strings.Builder
	for _, c := range cases {
		g, miniBatch, err := models.Build(c.model, 0, c.devices)
		if err != nil {
			t.Fatal(err)
		}
		var key memosnap.Key
		opts := c.opts
		opts.Workers = 1
		opts.WarmMemo = func(k memosnap.Key) *memosnap.Snapshot {
			key = k
			return nil
		}
		// The key is resolved before the search runs, so a search that
		// then finds no strategy still pins it.
		_, _, err = pl.Plan(g, cluster.NewSummitTopology(c.devices), miniBatch, opts)
		if key == (memosnap.Key{}) {
			t.Fatalf("%s@%d %s: memo key never requested (plan error: %v)", c.model, c.devices, c.label, err)
		}
		fmt.Fprintf(&out, "%s@%d %s: graph=%s shape=%016x cost=%016x\n",
			c.model, c.devices, c.label, key.GraphHash, key.ShapeSig, key.CostSig)
	}
	checkGolden(t, "memo_keys.golden", out.String())
}

// checkGolden compares output against a committed golden file;
// -update-golden rewrites it.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
