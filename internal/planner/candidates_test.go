package planner_test

import (
	"math"
	"slices"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
)

func TestMicroBatchCandidates(t *testing.T) {
	pow2Down := func(top int) []int {
		var out []int
		for b := top; b >= 1; b /= 2 {
			out = append(out, b)
		}
		return out
	}
	for _, c := range []struct {
		name      string
		opts      planner.Options
		miniBatch int
		want      []int
	}{
		{"defaults", planner.Options{}, 32, []int{32, 16, 8, 4, 2, 1}},
		{"non-power-of-two batch", planner.Options{}, 24, []int{8, 4, 2, 1}},
		{"default cap", planner.Options{}, 8192, pow2Down(planner.DefaultMaxMicroBatch)},
		{"explicit cap", planner.Options{MaxMicroBatch: 8}, 32, []int{8, 4, 2, 1}},
		{"forced", planner.Options{ForcedMicroBatch: 4, MaxMicroBatch: 2}, 32, []int{4}},
		{"forced non-dividing", planner.Options{ForcedMicroBatch: 5}, 32, nil},
		// The doubling used to overflow to 0 here and divide by it.
		{"2^62 batch and cap", planner.Options{MaxMicroBatch: 1 << 62}, 1 << 62, pow2Down(1 << 62)},
		{"largest odd batch", planner.Options{MaxMicroBatch: math.MaxInt}, math.MaxInt, []int{1}},
	} {
		if got := c.opts.MicroBatchCandidates(c.miniBatch); !slices.Equal(got, c.want) {
			t.Errorf("%s: candidates(%d) = %v, want %v", c.name, c.miniBatch, got, c.want)
		}
	}
}

// TestHugeMiniBatchFailsCleanly plans a 2^62 mini-batch under a 2^62 cap
// with every registered planner. The shared candidate rule used to
// overflow and panic with an integer divide by zero; now each planner
// must return an error (no size fits 1 MB devices) instead.
func TestHugeMiniBatchFailsCleanly(t *testing.T) {
	g := models.SequentialTransformer(2)
	topo := cluster.NewUniformTopology(2, 1e6, 100e9)
	for _, name := range planner.Names() {
		pl, err := planner.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := pl.Plan(g, topo, 1<<62, planner.Options{MaxMicroBatch: 1 << 62}); err == nil {
			t.Errorf("%s planned a 2^62 mini-batch onto 1 MB devices", name)
		}
	}
}
