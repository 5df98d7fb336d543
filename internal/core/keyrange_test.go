package core

import (
	"strings"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/costmodel"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/planner"
)

// The dpKey packing masks each field to a fixed bit width; Plan must reject
// any configuration that could overflow a field instead of silently
// colliding memo keys (and returning a corrupt strategy).

func newTestPlanner(t *testing.T, devices int, opts planner.Options) *Planner {
	t.Helper()
	g := models.SequentialTransformer(2)
	topo := cluster.NewSummitTopology(devices)
	p, err := NewPlanner(g, costmodel.NewDefault(topo), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestKeyRangeDeviceLimit(t *testing.T) {
	// 127 devices is the last packable count; direct validation accepts it.
	p := newTestPlanner(t, 127, planner.Options{})
	if err := p.validateKeyRanges([]int{1}); err != nil {
		t.Errorf("127 devices rejected: %v", err)
	}
	// 128 devices would wrap the 7-bit field to 0: Plan must error out.
	p = newTestPlanner(t, 128, planner.Options{})
	if _, _, err := p.Plan(256); err == nil || !strings.Contains(err.Error(), "device") {
		t.Errorf("128 devices: want device-limit error, got %v", err)
	}
}

func TestKeyRangeConfigLimit(t *testing.T) {
	// Per-stage mode interns one config per micro-batch candidate plus the
	// root's. A 2^62 mini-batch under an equal cap has 63 power-of-two
	// candidates, so 64 configs exceed the 6-bit index (the placement
	// dimension took the bits the config index used to have).
	const huge = 1 << 62
	p := newTestPlanner(t, 2, planner.Options{PerStageMicroBatch: true, MaxMicroBatch: huge})
	if _, _, err := p.Plan(huge); err == nil || !strings.Contains(err.Error(), "config") {
		t.Errorf("64 configs: want config-limit error, got %v", err)
	}
	// 63 fit (boundary): validation itself must pass.
	bCands := make([]int, 62)
	for i := range bCands {
		bCands[i] = i + 1
	}
	p = newTestPlanner(t, 2, planner.Options{PerStageMicroBatch: true})
	if err := p.validateKeyRanges(bCands); err != nil {
		t.Errorf("63 configs rejected: %v", err)
	}
}

func TestKeyRangeInFlightBound(t *testing.T) {
	// A micro-batch so large that the worst-case in-flight count
	// (3·k·b·devices) cannot fit the 22-bit field. ForcedMicroBatch
	// bypasses the MaxMicroBatch cap, which is exactly how an oversized
	// model would have silently truncated before the check existed.
	const huge = 1 << 25
	p := newTestPlanner(t, 4, planner.Options{ForcedMicroBatch: huge})
	if _, _, err := p.Plan(huge); err == nil || !strings.Contains(err.Error(), "in-flight") {
		t.Errorf("huge micro-batch: want in-flight-bound error, got %v", err)
	}
}

func TestKeyRangeZoneLimit(t *testing.T) {
	p := newTestPlanner(t, 2, planner.Options{})
	// White-box: inflate the interned-zone table past the 14-bit id space;
	// building a real >16384-zone model in a unit test would dominate the
	// suite's runtime.
	p.zones.sets = make([]graph.NodeSet, maxZoneID+2)
	if err := p.validateKeyRanges([]int{1}); err == nil || !strings.Contains(err.Error(), "zone") {
		t.Errorf("oversized zone table: want zone-limit error, got %v", err)
	}
	p.zones.sets = p.zones.sets[:maxZoneID+1] // boundary: exactly 2^14 zones fit
	if err := p.validateKeyRanges([]int{1}); err != nil {
		t.Errorf("full-but-legal zone table rejected: %v", err)
	}
}

// TestKeyRangeZoneLimitStopsEarly plans a 256-operator chain, whose
// n(n+1)/2 zones overflow the zone field. Zone resolution must stop once
// the table passes the limit (one resolution adds at most 2n zones)
// instead of interning all 32,896 zones first: that took 21 s and 1.1 GB
// on a 2-vCPU machine, and a 512-operator chain exhausted memory.
func TestKeyRangeZoneLimitStopsEarly(t *testing.T) {
	g, _, err := models.Build("synth:chain/seed=1/depth=254", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(g, costmodel.NewDefault(cluster.NewSummitTopology(2)), planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Plan(16); err == nil || !strings.Contains(err.Error(), "zone") {
		t.Fatalf("256-op chain: want zone-limit error, got %v", err)
	}
	if n, bound := len(p.zones.sets), maxZoneID+1+2*g.Len(); n > bound {
		t.Errorf("interned %d zones, want at most %d", n, bound)
	}
}
