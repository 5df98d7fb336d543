// Package cluster models the device topology graph D = (V_D, E_D) from §3:
// accelerator devices with memory budgets connected by communication links
// with bandwidths. Topologies may be heterogeneous (multiple device
// classes) and hierarchical (multiple bandwidth tiers with asymmetric
// per-direction rates); the default "summit" preset mirrors the paper's
// testbed — nodes with 4 NVLink-connected V100 GPUs per node and 100 Gb/s
// InfiniBand between nodes — so that planner decisions (e.g. keeping
// data-parallel replicas of a stage within a node) face the same bandwidth
// cliff the paper's hardware imposes.
package cluster

import (
	"fmt"
	"sort"
)

// DeviceID identifies a device within a Topology. IDs are dense from zero.
type DeviceID int

// Device is a single accelerator.
type Device struct {
	ID DeviceID
	// Node is the index of the innermost interconnect group (the host
	// machine on two-tier topologies) the device is attached to.
	Node int
	// MemoryBytes is the device memory budget M_v.
	MemoryBytes float64
	// PeakFLOPS is the device's peak throughput in FLOP/s.
	PeakFLOPS float64
	// MemBandwidth is the device's DRAM bandwidth in bytes/s, used by the
	// roofline cost model for memory-bound operators.
	MemBandwidth float64
}

// Block is a contiguous run of devices [Start, Start+Count). The planner
// places every stage on a block, so blocks are how placement-aware costs
// name "where a stage lands".
type Block struct {
	Start, Count int
}

// Topology is the device graph. Devices are ordered along the pipeline:
// lower ids are upstream. Link bandwidths come from the level hierarchy
// when one was specified; topologies built by the legacy constructors keep
// the flat two-tier view, where devices on the same node communicate at
// IntraNodeBandwidth and devices on different nodes at InterNodeBandwidth.
type Topology struct {
	devices []Device

	// levels is the interconnect hierarchy, innermost first; nil means the
	// legacy two-tier view derived from the exported fields below.
	levels []Level
	// classOf[i] is the index into classes of device i's interned class.
	classOf []int
	classes []DeviceClass

	// IntraNodeBandwidth is the bytes/s between two devices on one node
	// (NVLink on the paper's testbed).
	IntraNodeBandwidth float64
	// InterNodeBandwidth is the bytes/s between devices on different nodes
	// (EDR InfiniBand on the paper's testbed).
	InterNodeBandwidth float64
	// LinkLatency is the fixed per-transfer latency in seconds.
	LinkLatency float64
}

// NewSummitTopology builds the "summit" preset at n devices: V100-class
// devices grouped four per node, matching the paper's evaluation platform
// (§7). See SummitSpec for the constants.
func NewSummitTopology(n int) *Topology {
	if n < 1 {
		t := &Topology{
			IntraNodeBandwidth: summitNVLink,
			InterNodeBandwidth: summitIB,
			LinkLatency:        summitLatency,
		}
		t.internClasses()
		return t
	}
	t, err := SummitSpec(n).Build()
	if err != nil {
		panic(fmt.Sprintf("cluster: summit preset invalid: %v", err)) // unreachable
	}
	return t
}

// NewUniformTopology builds n identical devices on a single node with the
// given memory budget and a flat, symmetric interconnect; tests use it to
// create controlled memory pressure. Compute capabilities are borrowed
// from the summit preset's device class.
func NewUniformTopology(n int, memoryBytes, bandwidth float64) *Topology {
	t := &Topology{
		IntraNodeBandwidth: bandwidth,
		InterNodeBandwidth: bandwidth,
		LinkLatency:        summitLatency,
	}
	for i := 0; i < n; i++ {
		t.devices = append(t.devices, Device{
			ID:           DeviceID(i),
			Node:         0,
			MemoryBytes:  memoryBytes,
			PeakFLOPS:    summitPeakFLOPS,
			MemBandwidth: summitMemBandwidth,
		})
	}
	t.internClasses()
	return t
}

// classKey identifies a device class by capabilities alone, so interning
// is independent of what a spec author named the class.
type classKey struct{ mem, flops, membw float64 }

// internClasses computes the interned device-class table from the device
// list. Every constructor calls it; devices are immutable afterwards.
func (t *Topology) internClasses() {
	t.classOf = make([]int, len(t.devices))
	t.classes = nil
	seen := make(map[classKey]int)
	for i, d := range t.devices {
		k := classKey{d.MemoryBytes, d.PeakFLOPS, d.MemBandwidth}
		ci, ok := seen[k]
		if !ok {
			ci = len(t.classes)
			seen[k] = ci
			t.classes = append(t.classes, DeviceClass{
				Name:         fmt.Sprintf("c%d", ci),
				MemoryBytes:  d.MemoryBytes,
				PeakFLOPS:    d.PeakFLOPS,
				MemBandwidth: d.MemBandwidth,
			})
		}
		t.classOf[i] = ci
	}
}

// Len returns the number of devices |V_D|.
func (t *Topology) Len() int { return len(t.devices) }

// Device returns the device with the given id.
func (t *Topology) Device(id DeviceID) Device { return t.devices[id] }

// Devices returns all devices in id order. The slice must not be modified.
func (t *Topology) Devices() []Device { return t.devices }

// Classes returns the interned device classes. Uniform topologies have
// exactly one. The slice must not be modified.
func (t *Topology) Classes() []DeviceClass { return t.classes }

// ClassOf returns the interned class index of device id.
func (t *Topology) ClassOf(id DeviceID) int { return t.classOf[id] }

// MinMemory returns the smallest device memory budget, the M of Equation 2.
func (t *Topology) MinMemory() float64 {
	if len(t.devices) == 0 {
		return 0
	}
	m := t.devices[0].MemoryBytes
	for _, d := range t.devices[1:] {
		if d.MemoryBytes < m {
			m = d.MemoryBytes
		}
	}
	return m
}

// BlockMinMemory returns the smallest memory budget inside a device block:
// the M of Equation 2 restricted to the devices a stage actually occupies.
func (t *Topology) BlockMinMemory(b Block) float64 {
	if b.Count <= 0 {
		return t.MinMemory()
	}
	m := t.devices[b.Start].MemoryBytes
	for _, d := range t.devices[b.Start+1 : b.Start+b.Count] {
		if d.MemoryBytes < m {
			m = d.MemoryBytes
		}
	}
	return m
}

// effectiveLevels returns the interconnect hierarchy, deriving the
// two-tier view from the legacy fields when no explicit hierarchy was
// given. The derived outer level is present even on single-node
// topologies (where no device pair reaches it) so every topology renders
// in the same two-plus-level shape.
func (t *Topology) effectiveLevels() []Level {
	if t.levels != nil {
		return t.levels
	}
	n := len(t.devices)
	w := n
	for i, d := range t.devices {
		if d.Node != 0 {
			w = i
			break
		}
	}
	if w < 1 {
		w = 1
	}
	outer := n
	if outer < w {
		outer = w
	}
	if r := outer % w; r != 0 {
		outer += w - r
	}
	return []Level{
		{Name: "node", Width: w, DownBandwidth: t.IntraNodeBandwidth,
			UpBandwidth: t.IntraNodeBandwidth, Latency: t.LinkLatency},
		{Name: "cluster", Width: outer, DownBandwidth: t.InterNodeBandwidth,
			UpBandwidth: t.InterNodeBandwidth, Latency: t.LinkLatency},
	}
}

// LevelCount returns the number of interconnect tiers.
func (t *Topology) LevelCount() int {
	if t.levels == nil {
		return 2
	}
	return len(t.levels)
}

// LinkLevel returns the innermost hierarchy level over which devices a and
// b communicate (0 = fastest tier). a == b is level 0 by convention.
func (t *Topology) LinkLevel(a, b DeviceID) int {
	if t.levels == nil {
		if t.devices[a].Node == t.devices[b].Node {
			return 0
		}
		return 1
	}
	for l, lv := range t.levels {
		if int(a)/lv.Width == int(b)/lv.Width {
			return l
		}
	}
	return len(t.levels) - 1
}

// InLinkLevel returns the level of the link feeding a block starting at
// start from its upstream neighbor (device start-1). The head of the
// pipeline has no upstream link and uses the innermost level.
func (t *Topology) InLinkLevel(start int) int {
	if start <= 0 {
		return 0
	}
	return t.LinkLevel(DeviceID(start-1), DeviceID(start))
}

// LevelDown returns the pipeline-forward (activation) bandwidth of level l.
func (t *Topology) LevelDown(l int) float64 {
	if t.levels == nil {
		if l == 0 {
			return t.IntraNodeBandwidth
		}
		return t.InterNodeBandwidth
	}
	return t.levels[l].DownBandwidth
}

// LevelUp returns the pipeline-backward (gradient) bandwidth of level l.
func (t *Topology) LevelUp(l int) float64 {
	if t.levels == nil {
		if l == 0 {
			return t.IntraNodeBandwidth
		}
		return t.InterNodeBandwidth
	}
	return t.levels[l].UpBandwidth
}

// LevelLatency returns the per-transfer latency of level l.
func (t *Topology) LevelLatency(l int) float64 {
	if t.levels == nil {
		return t.LinkLatency
	}
	return t.levels[l].Latency
}

// Flat reports whether every device pair communicates at the same
// (symmetric) bandwidth and all devices are identical — the topologies on
// which placement-aware and placement-oblivious costs provably coincide.
func (t *Topology) Flat() bool {
	if len(t.classes) > 1 {
		return false
	}
	lvls := t.effectiveLevels()
	n := len(t.devices)
	base := lvls[0]
	if base.UpBandwidth != base.DownBandwidth {
		return false
	}
	for i, lv := range lvls {
		if i > 0 && lvls[i-1].Width >= n {
			break // a previous tier already spans every pair; outer tiers are unreachable
		}
		if lv.DownBandwidth != base.DownBandwidth || lv.UpBandwidth != base.UpBandwidth ||
			lv.Latency != base.Latency {
			return false
		}
	}
	return true
}

// Canonical returns the canonical spec string for the topology, or "" for
// the default summit preset at this device count. The empty string keeps
// summit fingerprints byte-identical to their historical preimages, so
// artifacts planned before topologies were configurable keep their hashes.
func (t *Topology) Canonical() string {
	spec := Spec{Classes: t.classes, Levels: t.effectiveLevels(), Assign: t.classOf}
	c := spec.Canonical()
	if len(t.devices) > 0 && c == SummitSpec(len(t.devices)).Canonical() {
		return ""
	}
	return c
}

// Bandwidth returns the bytes/s available for a transfer from device a to
// device b. Direction matters on asymmetric hierarchies: transfers toward
// higher device ids (pipeline-forward, activations) use the level's down
// bandwidth, transfers toward lower ids (gradients) its up bandwidth.
func (t *Topology) Bandwidth(a, b DeviceID) float64 {
	if a == b {
		return t.devices[a].MemBandwidth // same-device "transfer"
	}
	l := t.LinkLevel(a, b)
	if a < b {
		return t.LevelDown(l)
	}
	return t.LevelUp(l)
}

// GroupBandwidth returns the bottleneck bandwidth for transfers from one
// device group to another: the minimum pairwise link bandwidth between any
// sender and receiver. Stage boundaries are charged at this rate.
func (t *Topology) GroupBandwidth(from, to []DeviceID) float64 {
	if len(from) == 0 || len(to) == 0 {
		return t.LevelDown(0)
	}
	min := -1.0
	for _, a := range from {
		for _, b := range to {
			bw := t.Bandwidth(a, b)
			if min < 0 || bw < min {
				min = bw
			}
		}
	}
	return min
}

// GroupSpansNodes reports whether the device group crosses a node boundary,
// which determines the bandwidth used for intra-stage gradient allreduce.
func (t *Topology) GroupSpansNodes(group []DeviceID) bool {
	if len(group) < 2 {
		return false
	}
	node := t.devices[group[0]].Node
	for _, d := range group[1:] {
		if t.devices[d].Node != node {
			return true
		}
	}
	return false
}

// ContiguousBlock returns the block covering the device group if the ids
// form a contiguous ascending run, which is how the planner places stages.
// Evaluators use it to recover placement-aware costs from a strategy; for
// non-contiguous groups (some baseline planners) ok is false and costs
// fall back to the placement-oblivious path.
func ContiguousBlock(ids []DeviceID) (Block, bool) {
	if len(ids) == 0 {
		return Block{}, false
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			return Block{}, false
		}
	}
	return Block{Start: int(ids[0]), Count: len(ids)}, true
}

// SortIDs sorts device ids ascending in place and returns them.
func SortIDs(ids []DeviceID) []DeviceID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// PlaceStages assigns device groups to stages so that groups avoid
// straddling node boundaries when possible: groups of a whole node or more
// get whole nodes, smaller groups are first-fit packed into single nodes.
// Planners assume a stage of at most one node's devices synchronizes
// gradients over the fast intra-node links; this placement makes that
// assumption hold. counts must sum to exactly the topology size.
func PlaceStages(t *Topology, counts []int) ([][]DeviceID, error) {
	total := 0
	for _, c := range counts {
		if c <= 0 {
			return nil, fmt.Errorf("cluster: invalid stage device count %d", c)
		}
		total += c
	}
	if total != t.Len() {
		return nil, fmt.Errorf("cluster: stage device counts sum to %d, topology has %d", total, t.Len())
	}

	nodes := 1
	for _, d := range t.devices {
		if d.Node+1 > nodes {
			nodes = d.Node + 1
		}
	}
	free := make([][]DeviceID, nodes)
	for i := 0; i < t.Len(); i++ {
		d := t.devices[i]
		free[d.Node] = append(free[d.Node], d.ID)
	}

	// Place large groups first (whole nodes), then pack small groups
	// first-fit into the emptiest remaining nodes; process equal sizes in
	// stage order for determinism.
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] > counts[order[b]] })

	out := make([][]DeviceID, len(counts))
	for _, si := range order {
		need := counts[si]
		group := make([]DeviceID, 0, need)
		// Prefer nodes that fit the whole remainder; take the fullest
		// fitting node first to reduce fragmentation.
		for need > 0 {
			best := -1
			for ni := range free {
				if len(free[ni]) == 0 {
					continue
				}
				fits := len(free[ni]) >= need
				if best == -1 {
					best = ni
					continue
				}
				bestFits := len(free[best]) >= need
				switch {
				case fits && !bestFits:
					best = ni
				case fits == bestFits && len(free[ni]) < len(free[best]) && fits:
					best = ni // tightest fit among fitting nodes
				case fits == bestFits && !fits && len(free[ni]) > len(free[best]):
					best = ni // largest chunk when nothing fits
				}
			}
			if best == -1 {
				return nil, fmt.Errorf("cluster: placement ran out of devices")
			}
			take := need
			if take > len(free[best]) {
				take = len(free[best])
			}
			group = append(group, free[best][:take]...)
			free[best] = free[best][take:]
			need -= take
		}
		out[si] = SortIDs(group)
	}
	return out, nil
}
