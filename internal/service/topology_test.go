package service

import (
	"context"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/models"
)

// TestTopologyFingerprintSpellings pins the canonicalization contract for
// the topology dimension of the request identity: every spelling of one
// physical cluster fingerprints identically, and any change to the
// cluster's substance — a link bandwidth, a device class — changes the
// fingerprint.
func TestTopologyFingerprintSpellings(t *testing.T) {
	base := Request{Model: "case-study", Devices: 4}
	fp := func(topology string) string {
		t.Helper()
		r := base
		r.Topology = topology
		f, err := r.CanonicalFingerprint()
		if err != nil {
			t.Fatalf("fingerprinting topology %q: %v", topology, err)
		}
		return f
	}

	// The Summit default has three spellings: absent, the preset name,
	// and the fully explicit spec.
	def := fp("")
	if got := fp("summit"); got != def {
		t.Errorf("preset name fingerprints differently from the default: %s vs %s", got, def)
	}
	if got := fp(cluster.SummitSpec(4).Canonical()); got != def {
		t.Errorf("explicit Summit spelling fingerprints differently from the default: %s vs %s", got, def)
	}

	// A synth family name and its resolved explicit spec are one cluster.
	synthName := "topo:hetero-speed/seed=3"
	topo, err := models.Topology(synthName, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fp(synthName), fp(topo.Canonical()); got != want {
		t.Errorf("synth spelling and its explicit form diverge: %s vs %s", got, want)
	}
	if got := fp(synthName); got == def {
		t.Error("hetero topology shares the Summit default's fingerprint")
	}

	// Substance changes move the fingerprint: a faster inter-node link,
	// a different device class.
	spec := cluster.SummitSpec(4)
	spec.Levels[len(spec.Levels)-1].DownBandwidth *= 2
	if got := fp(spec.Canonical()); got == def {
		t.Error("doubling a link bandwidth left the fingerprint unchanged")
	}
	spec = cluster.SummitSpec(4)
	spec.Classes[0].PeakFLOPS *= 2
	if got := fp(spec.Canonical()); got == def {
		t.Error("doubling the device class's FLOPS left the fingerprint unchanged")
	}
}

// TestTopologyScopesCacheAndMemo pins that the topology participates in
// both reuse tiers: a respelled identical cluster hits the plan cache,
// a different cluster misses it AND is refused warm-start from the other
// cluster's memo snapshot (the snapshot cost signature binds the
// topology, so a hetero cluster can never inherit Summit's DP memo).
func TestTopologyScopesCacheAndMemo(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	req := func(topology string) Request {
		return Request{Model: "mmt", Devices: 4, MiniBatch: 64,
			Planner: "graphpipe", Topology: topology}
	}

	if _, err := s.Plan(context.Background(), req("")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Values["planned"] != 1 {
		t.Fatalf("first plan ran %v planner runs, want 1", st.Values["planned"])
	}

	// Same cluster, different spelling: served from cache, no new run.
	if _, err := s.Plan(context.Background(), req("summit")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Values["planned"] != 1 || st.Values["hits_memory"] != 1 {
		t.Fatalf("respelled Summit request: planned=%v memory_hits=%v, want 1/1",
			st.Values["planned"], st.Values["hits_memory"])
	}

	// Different cluster: a fresh planner run, and no warm hit off the
	// Summit run's snapshot.
	if _, err := s.Plan(context.Background(), req("topo:hetero-speed/seed=1")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Values["planned"] != 2 {
		t.Errorf("hetero request reused the Summit plan: planned=%v, want 2", st.Values["planned"])
	}
	if st.Values["memo_warm_hits"] != 0 {
		t.Errorf("hetero planner run warm-started from the Summit memo: warm_hits=%v", st.Values["memo_warm_hits"])
	}
}
