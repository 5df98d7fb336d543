package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sync"
	"testing"

	"graphpipe/internal/obs"
)

// strategyBytes isolates the plan itself from provenance (search seconds,
// warm-start stats vary run to run; the strategy must not).
func strategyBytes(t *testing.T, r *PlanResult) []byte {
	t.Helper()
	data, err := json.Marshal(r.Artifact.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWarmStartAcrossRequests pins the service-level warm-start loop: the
// first graphpipe plan for a canonical graph installs a memo snapshot,
// and a later request for the same graph at a different device count
// warm-starts from it — with the identical strategy a warm-disabled
// service computes.
func TestWarmStartAcrossRequests(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	cold := newService(t, Config{Workers: 2, MemoSnapshots: -1})
	// Explicit mini-batch: the canonical graph and the planned B stay
	// fixed across device counts, so the snapshot applies to the replan.
	req := func(devices int) Request {
		return Request{Model: "mmt", Devices: devices, MiniBatch: 64, Planner: "graphpipe"}
	}

	if _, err := s.Plan(context.Background(), req(4)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Values["memo_installs"] != 1 || st.Values["memo_snapshots"] != 1 {
		t.Fatalf("first plan: installs=%v snapshots=%v, want 1/1", st.Values["memo_installs"], st.Values["memo_snapshots"])
	}
	if st.Values["memo_warm_hits"] != 0 {
		t.Fatalf("first plan claimed a warm hit")
	}

	// Elastic replan at half the devices.
	warm, err := s.Plan(context.Background(), req(2))
	if err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Values["memo_warm_hits"] != 1 || st.Values["memo_entries_reused"] == 0 {
		t.Errorf("replan: warm_hits=%v entries_reused=%v, want 1/>0", st.Values["memo_warm_hits"], st.Values["memo_entries_reused"])
	}
	if st.Values["memo_installs"] != 2 || st.Values["memo_snapshots"] != 1 {
		t.Errorf("replan: installs=%v snapshots=%v, want 2/1 (merged under one key)", st.Values["memo_installs"], st.Values["memo_snapshots"])
	}
	if !warm.Artifact.Planner.WarmStarted || warm.Artifact.Planner.MemoEntriesReused == 0 {
		t.Errorf("artifact provenance missing warm-start: %+v", warm.Artifact.Planner)
	}

	pristine, err := cold.Plan(context.Background(), req(2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(strategyBytes(t, warm), strategyBytes(t, pristine)) {
		t.Error("warm-started service strategy diverged from warm-disabled service")
	}
	if cs := cold.Stats(); cs.Values["memo_installs"] != 0 || cs.Values["memo_warm_hits"] != 0 || cs.Values["memo_snapshots"] != 0 {
		t.Errorf("disabled store reported activity: %+v", cs)
	}
	if pristine.Artifact.Planner.WarmStarted {
		t.Error("warm-disabled service marked its artifact warm-started")
	}
}

// TestWarmStartConcurrentReplans is the -race hammer: distinct requests
// over one canonical graph replan concurrently while snapshots for the
// same key are being installed, merged, and read. It pins exactly-once
// install per planner run, a single merged store entry, and — against a
// pristine warm-disabled service — byte-identical strategies, so no
// reader ever saw a torn snapshot.
func TestWarmStartConcurrentReplans(t *testing.T) {
	s := newService(t, Config{Workers: 4, QueueDepth: 64, MemoSnapshots: 2})
	reqs := []Request{}
	for _, devices := range []int{2, 3, 4} {
		for _, mb := range []int{32, 64, 128} {
			reqs = append(reqs, Request{Model: "mmt", Devices: devices, MiniBatch: mb, Planner: "graphpipe"})
		}
	}

	// Warm the store, then hammer: every request replans twice
	// concurrently (the second round hits the artifact cache for its own
	// fingerprint, so force planner runs by planning round one cold).
	var wg sync.WaitGroup
	results := make([]*PlanResult, len(reqs))
	errs := make([]error, len(reqs))
	for i := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.Plan(context.Background(), reqs[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	st := s.Stats()
	if st.Values["planned"] != float64(len(reqs)) {
		t.Fatalf("planned %v runs, want %v distinct", st.Values["planned"], len(reqs))
	}
	if st.Values["memo_installs"] != st.Values["planned"] {
		t.Errorf("installs=%v planned=%v — snapshot install is not exactly-once per run", st.Values["memo_installs"], st.Values["planned"])
	}
	// One canonical graph and one option set → one compatibility key; the
	// concurrent installs must have merged, not multiplied.
	if st.Values["memo_snapshots"] != 1 {
		t.Errorf("store holds %v snapshots, want 1 merged", st.Values["memo_snapshots"])
	}

	cold := newService(t, Config{Workers: 4, QueueDepth: 64, MemoSnapshots: -1})
	for i := range reqs {
		pristine, err := cold.Plan(context.Background(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(strategyBytes(t, results[i]), strategyBytes(t, pristine)) {
			t.Errorf("request %d (devices=%d mb=%d): concurrent warm strategy diverged from cold",
				i, reqs[i].Devices, reqs[i].MiniBatch)
		}
	}
}

// TestStatsDocsMatchSnapshot reconciles the README's GET /v1/stats field
// table with the implementation, both ways: every documented field must
// appear in marshaled Stats — every stats table key plus the regrouped
// families — and every field must be documented. This is the test the
// table says it has.
func TestStatsDocsMatchSnapshot(t *testing.T) {
	snap := RenderStats(nil)
	// Populate the omitempty families so they marshal.
	snap.PlannerLatency = map[string]obs.HistogramSnapshot{"graphpipe": {}}
	snap.FaultsInjected = map[string]uint64{"peers/http.drop": 1}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	documented := map[string]bool{}
	row := regexp.MustCompile("^\\| `([a-z_]+)` \\|")
	inTable := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case !inTable:
			inTable = line == "| Field | Meaning |"
		case row.MatchString(line):
			documented[row.FindStringSubmatch(line)[1]] = true
		case line == "" && len(documented) > 0:
			inTable = false
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(documented) == 0 {
		t.Fatal("README stats table not found (looking for a '| Field | Meaning |' header)")
	}

	for field := range documented {
		if _, ok := got[field]; !ok {
			t.Errorf("README documents %q; GET /v1/stats does not return it", field)
		}
	}
	for field := range got {
		if !documented[field] {
			t.Errorf("GET /v1/stats returns %q; README table does not document it (fix the Serving section)", field)
		}
	}
}
