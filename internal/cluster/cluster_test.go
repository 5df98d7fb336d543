package cluster

import "testing"

func TestSummitTopologyShape(t *testing.T) {
	topo := NewSummitTopology(8)
	if topo.Len() != 8 {
		t.Fatalf("Len = %d", topo.Len())
	}
	if topo.Device(0).Node != 0 || topo.Device(3).Node != 0 {
		t.Error("first four devices should share node 0")
	}
	if topo.Device(4).Node != 1 {
		t.Error("device 4 should be on node 1")
	}
	if topo.MinMemory() != 16e9 {
		t.Errorf("MinMemory = %g", topo.MinMemory())
	}
}

func TestBandwidthTiers(t *testing.T) {
	topo := NewSummitTopology(8)
	intra := topo.Bandwidth(0, 1)
	inter := topo.Bandwidth(0, 4)
	if intra <= inter {
		t.Errorf("intra-node bw %g should exceed inter-node %g", intra, inter)
	}
	if self := topo.Bandwidth(2, 2); self <= intra {
		t.Errorf("same-device bw %g should exceed link bw %g", self, intra)
	}
}

func TestGroupBandwidthBottleneck(t *testing.T) {
	topo := NewSummitTopology(8)
	// Group {0,1} to {2,3}: all intra-node.
	if bw := topo.GroupBandwidth([]DeviceID{0, 1}, []DeviceID{2, 3}); bw != topo.IntraNodeBandwidth {
		t.Errorf("intra-node group bw = %g", bw)
	}
	// Group {0} to {3,4}: crosses nodes, bottlenecked by IB.
	if bw := topo.GroupBandwidth([]DeviceID{0}, []DeviceID{3, 4}); bw != topo.InterNodeBandwidth {
		t.Errorf("cross-node group bw = %g", bw)
	}
	// Empty groups fall back to intra-node.
	if bw := topo.GroupBandwidth(nil, []DeviceID{0}); bw != topo.IntraNodeBandwidth {
		t.Errorf("empty group bw = %g", bw)
	}
}

func TestGroupSpansNodesAndAllreduce(t *testing.T) {
	topo := NewSummitTopology(8)
	if topo.GroupSpansNodes([]DeviceID{0, 1, 2, 3}) {
		t.Error("single-node group reported as spanning")
	}
	if !topo.GroupSpansNodes([]DeviceID{3, 4}) {
		t.Error("cross-node group not reported")
	}
	if topo.GroupSpansNodes([]DeviceID{5}) {
		t.Error("singleton group spans nodes")
	}
}

func TestUniformTopology(t *testing.T) {
	topo := NewUniformTopology(3, 1e9, 5e9)
	if topo.Len() != 3 || topo.MinMemory() != 1e9 {
		t.Fatalf("uniform topology wrong: len=%d mem=%g", topo.Len(), topo.MinMemory())
	}
	if topo.Bandwidth(0, 2) != 5e9 {
		t.Errorf("uniform bw = %g", topo.Bandwidth(0, 2))
	}
}

func TestSortIDs(t *testing.T) {
	ids := SortIDs([]DeviceID{3, 1, 2})
	if ids[0] != 1 || ids[2] != 3 {
		t.Errorf("SortIDs = %v", ids)
	}
}
