// Package strategy defines the output of all planners: the pipeline stage
// graph G_S = (V_S, E_S) of §3. Each stage S_i = ⟨G_i, b_i, D_i, Π_i⟩ holds
// a convex subgraph of the computation graph, a micro-batch size, a device
// set, and a micro-batch schedule. Validate checks conditions C1–C4, and
// Depth computes the pipeline depth (the diameter of the stage graph) that
// drives GraphPipe's memory advantage (§2).
package strategy

import (
	"fmt"
	"sort"
	"strings"

	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
	"graphpipe/internal/schedule"
)

// StageID indexes a stage within a Strategy.
type StageID int

// Stage is one pipeline stage.
type Stage struct {
	ID StageID
	// Ops is G_i, the subgraph of the computation graph assigned to the
	// stage.
	Ops graph.NodeSet
	// Config holds b_i (micro-batch size) and the stage's kFkB parameter.
	Config schedule.Config
	// Devices is D_i. len(Devices) > 1 applies data parallelism within the
	// stage.
	Devices []cluster.DeviceID
	// InFlightSamples is the scheduler-determined number of in-flight
	// samples (Algorithm 2 / Table 2).
	InFlightSamples int
	// Tasks is Π_i, the stage's forward/backward order for one iteration.
	Tasks []schedule.Task
}

// Strategy is a complete parallelization plan for one model, mini-batch
// size, and device topology.
type Strategy struct {
	// Planner names the algorithm that produced the strategy
	// ("graphpipe", "pipedream", "piper").
	Planner string
	// MiniBatch is B.
	MiniBatch int
	Stages    []Stage
	// Succ[i] lists the stages that consume stage i's outputs (E_S).
	Succ [][]StageID
	// Pred[i] lists the stages producing stage i's inputs.
	Pred [][]StageID
}

// NumStages returns |V_S|.
func (s *Strategy) NumStages() int { return len(s.Stages) }

// StageOf returns the stage that owns the operator, or -1.
func (s *Strategy) StageOf(op graph.NodeID) StageID {
	for i := range s.Stages {
		if s.Stages[i].Ops.Contains(op) {
			return StageID(i)
		}
	}
	return -1
}

// BuildEdges derives E_S from the computation graph per C2: stage i precedes
// stage j iff some operator edge crosses from G_i to G_j. It overwrites
// Succ/Pred.
func (s *Strategy) BuildEdges(g *graph.Graph) error {
	n := len(s.Stages)
	s.Succ = make([][]StageID, n)
	s.Pred = make([][]StageID, n)
	owner := make([]StageID, g.Len())
	for i := range owner {
		owner[i] = -1
	}
	for i := range s.Stages {
		for _, op := range s.Stages[i].Ops.IDs() {
			if owner[op] != -1 {
				return fmt.Errorf("strategy: op %d in stages %d and %d", op, owner[op], i)
			}
			owner[op] = StageID(i)
		}
	}
	seen := make(map[[2]StageID]bool)
	for _, e := range g.Edges() {
		a, b := owner[e.From], owner[e.To]
		if a == -1 || b == -1 {
			return fmt.Errorf("strategy: edge %v references unassigned op", e)
		}
		if a == b {
			continue
		}
		key := [2]StageID{a, b}
		if !seen[key] {
			seen[key] = true
			s.Succ[a] = append(s.Succ[a], b)
			s.Pred[b] = append(s.Pred[b], a)
		}
	}
	for i := range s.Succ {
		sort.Slice(s.Succ[i], func(a, b int) bool { return s.Succ[i][a] < s.Succ[i][b] })
		sort.Slice(s.Pred[i], func(a, b int) bool { return s.Pred[i][a] < s.Pred[i][b] })
	}
	return nil
}

// Validate checks the validity conditions of §3 against the computation
// graph and topology:
//
//	C1: stages are non-overlapping convex subgraphs covering all operators;
//	C2: stage edges exist exactly where operator edges cross stages, and the
//	    stage graph is acyclic;
//	C3: device sets are disjoint, non-empty, and within the topology;
//	C4: every stage's task order is a valid micro-batch schedule.
//
// It also checks that mini-batch and micro-batch sizes are consistent.
func (s *Strategy) Validate(g *graph.Graph, topo *cluster.Topology) error {
	if len(s.Stages) == 0 {
		return fmt.Errorf("strategy: no stages")
	}
	// C1: partition + convexity.
	covered := graph.NewNodeSet(g.Len())
	for i := range s.Stages {
		st := &s.Stages[i]
		if st.Ops.Empty() {
			return fmt.Errorf("strategy: stage %d empty", i)
		}
		if !covered.Disjoint(st.Ops) {
			return fmt.Errorf("strategy: stage %d overlaps another stage", i)
		}
		covered = covered.Union(st.Ops)
		if !g.InducedConvex(st.Ops) {
			return fmt.Errorf("strategy: stage %d (%v) is not convex (C1)", i, st.Ops)
		}
	}
	if covered.Len() != g.Len() {
		return fmt.Errorf("strategy: stages cover %d of %d ops (C1)", covered.Len(), g.Len())
	}

	// C2: every operator-edge crossing must be reflected in the stage
	// graph. Additional edges are permitted: SPP strategies impose
	// "imaginary linear dependencies" between stages the computation graph
	// leaves independent (Figure 2), and the stage graph must stay acyclic
	// with them.
	derived := &Strategy{Stages: s.Stages}
	if err := derived.BuildEdges(g); err != nil {
		return err
	}
	if !edgesSubset(derived.Succ, s.Succ) {
		return fmt.Errorf("strategy: stage edges missing an operator crossing (C2)")
	}
	if !predsMatchSuccs(s.Succ, s.Pred) {
		return fmt.Errorf("strategy: Pred is not the transpose of Succ")
	}
	if err := checkAcyclic(s.Succ); err != nil {
		return err
	}

	// C3: device partition.
	seenDev := make(map[cluster.DeviceID]StageID)
	for i := range s.Stages {
		st := &s.Stages[i]
		if len(st.Devices) == 0 {
			return fmt.Errorf("strategy: stage %d has no devices (C3)", i)
		}
		for _, d := range st.Devices {
			if int(d) < 0 || int(d) >= topo.Len() {
				return fmt.Errorf("strategy: stage %d uses unknown device %d", i, d)
			}
			if prev, dup := seenDev[d]; dup {
				return fmt.Errorf("strategy: device %d assigned to stages %d and %d (C3)", d, prev, i)
			}
			seenDev[d] = StageID(i)
		}
	}

	// C4 + batch consistency.
	for i := range s.Stages {
		st := &s.Stages[i]
		if !st.Config.Valid() {
			return fmt.Errorf("strategy: stage %d has invalid config %+v", i, st.Config)
		}
		if s.MiniBatch%st.Config.MicroBatch != 0 {
			return fmt.Errorf("strategy: stage %d micro-batch %d does not divide mini-batch %d",
				i, st.Config.MicroBatch, s.MiniBatch)
		}
		if len(st.Tasks) > 0 {
			if err := schedule.ValidateTasks(st.Tasks, st.Config, s.MiniBatch); err != nil {
				return fmt.Errorf("strategy: stage %d schedule invalid (C4): %w", i, err)
			}
		}
	}
	return nil
}

// edgesSubset reports whether every edge of a is present in b.
func edgesSubset(a, b [][]StageID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		have := make(map[StageID]bool, len(b[i]))
		for _, w := range b[i] {
			have[w] = true
		}
		for _, w := range a[i] {
			if !have[w] {
				return false
			}
		}
	}
	return true
}

// predsMatchSuccs verifies Pred is exactly the transpose of Succ.
func predsMatchSuccs(succ, pred [][]StageID) bool {
	if len(succ) != len(pred) {
		return false
	}
	count := 0
	for v, ws := range succ {
		for _, w := range ws {
			found := false
			for _, p := range pred[w] {
				if p == StageID(v) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
			count++
		}
	}
	total := 0
	for _, ps := range pred {
		total += len(ps)
	}
	return count == total
}

// AddSequentialEdges imposes a strict sequential order on the stages (the
// "imaginary linear dependencies" SPP planners introduce when they
// linearize the computation graph, Figure 2). Existing edges are kept;
// consecutive stages in `order` gain an edge if absent.
func (s *Strategy) AddSequentialEdges(order []StageID) {
	for i := 0; i+1 < len(order); i++ {
		a, b := order[i], order[i+1]
		exists := false
		for _, w := range s.Succ[a] {
			if w == b {
				exists = true
				break
			}
		}
		if !exists {
			s.Succ[a] = append(s.Succ[a], b)
			s.Pred[b] = append(s.Pred[b], a)
		}
	}
	for i := range s.Succ {
		sort.Slice(s.Succ[i], func(a, b int) bool { return s.Succ[i][a] < s.Succ[i][b] })
		sort.Slice(s.Pred[i], func(a, b int) bool { return s.Pred[i][a] < s.Pred[i][b] })
	}
}

// SequentialChain assembles the synchronous 1F1B pipeline the SPP
// baselines (PipeDream, Piper) emit: stage i runs ops[i] data-parallel over
// devices[i] replicas at micro-batch b and holds one micro-batch per stage
// between it and the sink ((n−i)·b in-flight samples for n stages), devices
// are placed by cluster.PlaceStages, and consecutive stages are chained by
// the linearization's imaginary dependencies (Figure 2, top). The result is
// validated against g and topo; planner names the producing search.
func SequentialChain(g *graph.Graph, topo *cluster.Topology, planner string, miniBatch, b int, ops []graph.NodeSet, devices []int) (*Strategy, error) {
	st := &Strategy{Planner: planner, MiniBatch: miniBatch}
	cfg := schedule.Config{MicroBatch: b, K: 1}
	order := make([]StageID, len(ops))
	for i, set := range ops {
		inFlight := (len(ops) - i) * b
		tasks, err := schedule.BuildTasks(cfg, miniBatch, inFlight)
		if err != nil {
			return nil, err
		}
		order[i] = StageID(i)
		st.Stages = append(st.Stages, Stage{
			ID:              order[i],
			Ops:             set,
			Config:          cfg,
			InFlightSamples: inFlight,
			Tasks:           tasks,
		})
	}
	groups, err := cluster.PlaceStages(topo, devices)
	if err != nil {
		return nil, err
	}
	for i := range st.Stages {
		st.Stages[i].Devices = groups[i]
	}
	if err := st.BuildEdges(g); err != nil {
		return nil, err
	}
	st.AddSequentialEdges(order)
	if err := st.Validate(g, topo); err != nil {
		return nil, fmt.Errorf("%s: assembled strategy invalid: %w", planner, err)
	}
	return st, nil
}

func checkAcyclic(succ [][]StageID) error {
	n := len(succ)
	indeg := make([]int, n)
	for _, ws := range succ {
		for _, w := range ws {
			indeg[w]++
		}
	}
	var q []StageID
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			q = append(q, StageID(i))
		}
	}
	done := 0
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		done++
		for _, w := range succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				q = append(q, w)
			}
		}
	}
	if done != n {
		return fmt.Errorf("strategy: stage graph has a cycle (C2)")
	}
	return nil
}

// Depth returns the pipeline depth: the number of stages on the longest
// path of the stage graph (the diameter of G_S, §2). SPP strategies with n
// stages have depth n; GPP strategies with parallel branches have smaller
// depth, which is the source of their memory advantage.
func (s *Strategy) Depth() int {
	n := len(s.Stages)
	depth := make([]int, n)
	order, err := topoStages(s.Succ)
	if err != nil {
		return n // cyclic: report worst case
	}
	max := 0
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		d := 1
		for _, w := range s.Succ[v] {
			if depth[w]+1 > d {
				d = depth[w] + 1
			}
		}
		depth[v] = d
		if d > max {
			max = d
		}
	}
	return max
}

func topoStages(succ [][]StageID) ([]StageID, error) {
	n := len(succ)
	indeg := make([]int, n)
	for _, ws := range succ {
		for _, w := range ws {
			indeg[w]++
		}
	}
	var q, order []StageID
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			q = append(q, StageID(i))
		}
	}
	for len(q) > 0 {
		sort.Slice(q, func(i, j int) bool { return q[i] < q[j] })
		v := q[0]
		q = q[1:]
		order = append(order, v)
		for _, w := range succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				q = append(q, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("strategy: cycle")
	}
	return order, nil
}

// TopoOrder returns the stages in a deterministic topological order of the
// stage graph.
func (s *Strategy) TopoOrder() []StageID {
	order, err := topoStages(s.Succ)
	if err != nil {
		panic(err) // Validate rejects cyclic stage graphs
	}
	return order
}

// MaxInFlightSamples returns the largest per-stage in-flight sample count,
// a proxy for peak activation pressure.
func (s *Strategy) MaxInFlightSamples() int {
	max := 0
	for i := range s.Stages {
		if s.Stages[i].InFlightSamples > max {
			max = s.Stages[i].InFlightSamples
		}
	}
	return max
}

// String renders a human-readable summary.
func (s *Strategy) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s strategy: %d stages, depth %d, mini-batch %d\n",
		s.Planner, len(s.Stages), s.Depth(), s.MiniBatch)
	for i := range s.Stages {
		st := &s.Stages[i]
		fmt.Fprintf(&sb, "  S%d: %d ops, %s, devices %v, in-flight %d samples ->",
			i, st.Ops.Len(), st.Config, st.Devices, st.InFlightSamples)
		for _, w := range s.Succ[i] {
			fmt.Fprintf(&sb, " S%d", w)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
