package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphpipe/internal/obs"
	"graphpipe/internal/service"
)

const planBody = `{"model":"case-study","devices":4}`

func newTestRouter(t *testing.T, cfg RouterConfig) (*Router, *httptest.Server, *[]time.Duration) {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1 // the tests drive health transitions themselves
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	slept := &[]time.Duration{}
	r.sleep = func(d time.Duration) { *slept = append(*slept, d) }
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	return r, srv, slept
}

// TestRouterHonorsRetryAfterOnSameBackend pins satellite behavior the
// fleet depends on under load: a 429 is retried on the SAME backend
// (the one owning the fingerprint's cache) after exactly the backend's
// Retry-After, capped by MaxRetryAfter — not failed over to a replica
// that would cold-plan the same question.
func TestRouterHonorsRetryAfterOnSameBackend(t *testing.T) {
	var calls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7") // above the cap
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set(service.HeaderCache, "hit-memory")
		w.Write([]byte(`{"ok":true}`))
	}))
	defer backend.Close()

	r, srv, slept := newTestRouter(t, RouterConfig{
		Backends:      []string{backend.URL},
		RetryShed:     1,
		MaxRetryAfter: 2 * time.Second,
	})

	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(planBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 after one shed retry", resp.StatusCode)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("backend saw %d calls, want 2 (shed + retry)", got)
	}
	if len(*slept) != 1 || (*slept)[0] != 2*time.Second {
		t.Fatalf("backoffs = %v, want exactly [2s] (Retry-After 7s capped at 2s)", *slept)
	}
	if got := r.retried429.Value(); got != 1 {
		t.Fatalf("retried_429 = %d, want 1", got)
	}
}

// TestRouterPropagatesPersistent429 pins the give-up side: a backend
// that sheds past the retry budget propagates its 429 — and its
// Retry-After — to the client instead of spilling the key to a replica.
func TestRouterPropagatesPersistent429(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer backend.Close()

	_, srv, slept := newTestRouter(t, RouterConfig{
		Backends:      []string{backend.URL},
		RetryShed:     2,
		MaxRetryAfter: 2 * time.Second,
	})
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(planBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 once retries are exhausted", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want relayed %q", got, "1")
	}
	if want := []time.Duration{time.Second, time.Second}; len(*slept) != 2 ||
		(*slept)[0] != want[0] || (*slept)[1] != want[1] {
		t.Fatalf("backoffs = %v, want %v", *slept, want)
	}
}

// TestRouterFailsOverOnConnectionFailure pins replica failover: when the
// owning shard is unreachable, the request lands on the next ring
// replica instead of erroring, and the dead shard is marked down.
func TestRouterFailsOverOnConnectionFailure(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	defer live.Close()
	dead := httptest.NewServer(http.HandlerFunc(nil))
	deadURL := dead.URL
	dead.Close() // nothing listens there anymore

	r, srv, _ := newTestRouter(t, RouterConfig{Backends: []string{deadURL, live.URL}})

	// Find a key the dead backend owns, so the request must fail over.
	key := ""
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("fp-%d", i)
		if r.ring.Owner(k) == deadURL {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key hashed to the dead backend")
	}

	resp, err := http.Get(srv.URL + "/v1/artifacts/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 from the failover replica", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderBackend); got != live.URL {
		t.Fatalf("%s = %q, want the live backend %q", HeaderBackend, got, live.URL)
	}
	if got := r.failovers.Value(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	r.mu.Lock()
	down := r.down[deadURL]
	r.mu.Unlock()
	if !down {
		t.Fatal("dead backend not marked down after a connection failure")
	}
}

// TestRouterRelaysHeadersAndStampsBackend pins the relay contract:
// cache/fingerprint headers pass through untouched and the answering
// shard is stamped, which is what lets fleetgen attribute latencies to
// tiers and the smoke test observe placement.
func TestRouterRelaysHeadersAndStampsBackend(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(service.HeaderFingerprint, "fp123")
		w.Header().Set(service.HeaderCache, "hit-disk")
		w.Write([]byte(`{"ok":true}`))
	}))
	defer backend.Close()

	_, srv, _ := newTestRouter(t, RouterConfig{Backends: []string{backend.URL}})
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(planBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(service.HeaderFingerprint); got != "fp123" {
		t.Errorf("fingerprint header = %q, want fp123", got)
	}
	if got := resp.Header.Get(service.HeaderCache); got != "hit-disk" {
		t.Errorf("cache header = %q, want hit-disk", got)
	}
	if got := resp.Header.Get(HeaderBackend); got != backend.URL {
		t.Errorf("backend header = %q, want %q", got, backend.URL)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != `{"ok":true}` {
		t.Errorf("body = %q relayed incorrectly", body)
	}
}

// TestRouterRejectsOversizedBodies pins that a body over
// service.MaxBodyBytes is refused whole, not truncated to the limit and
// forwarded: here the first MaxBodyBytes are a valid planning request,
// so truncation would have planned something the client never sent.
func TestRouterRejectsOversizedBodies(t *testing.T) {
	var backendCalls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backendCalls.Add(1)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer backend.Close()

	r, srv, _ := newTestRouter(t, RouterConfig{Backends: []string{backend.URL}})
	body := planBody + strings.Repeat(" ", service.MaxBodyBytes)
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "exceeds") {
		t.Errorf("oversized body: status %d %s, want a 400 naming the limit", resp.StatusCode, data)
	}
	if got := backendCalls.Load(); got != 0 {
		t.Errorf("backend saw %d calls for an oversized body, want 0", got)
	}
	if got := r.badRequests.Value(); got != 1 {
		t.Errorf("bad_requests = %d, want 1", got)
	}
	// At the limit exactly, the same request still routes.
	resp, err = http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body[:service.MaxBodyBytes]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || backendCalls.Load() != 1 {
		t.Errorf("body of exactly MaxBodyBytes: status %d, %d backend calls; want 200, 1", resp.StatusCode, backendCalls.Load())
	}
}

// TestRouterRejectsMalformedRequests pins that garbage dies at the
// router with the daemons' 400 shape, before consuming backend queue
// slots.
func TestRouterRejectsMalformedRequests(t *testing.T) {
	var backendCalls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backendCalls.Add(1)
	}))
	defer backend.Close()

	r, srv, _ := newTestRouter(t, RouterConfig{Backends: []string{backend.URL}})
	bodies := []string{
		`{not json`,
		`{"model":"case-study","devices":4,"bogus_field":1}`,
		`{"model":"case-study","devices":-2}`,
		// Hostile bodies a shard used to crash on (an overflowing
		// micro-batch search) or spend seconds canonicalizing (unbounded
		// synth graphs).
		`{"model":"mmt","devices":8,"mini_batch":4611686018427387904,"options":{"max_micro_batch":4611686018427387904}}`,
		`{"model":"synth:nested/seed=1/nesting=16","devices":4}`,
		`{"model":"synth:fanout/seed=1/depth=1024/branches=1024","devices":4}`,
		`{"model":"synth:skew/seed=1/skew=NaN","devices":4}`,
	}
	for _, body := range bodies {
		resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
	if got := backendCalls.Load(); got != 0 {
		t.Errorf("backend saw %d calls for malformed requests, want 0", got)
	}
	if got := r.badRequests.Value(); got != uint64(len(bodies)) {
		t.Errorf("bad_requests = %d, want %d", got, len(bodies))
	}
}

// TestRouterAggregatesStats pins /v1/stats: each backend's /metrics
// rendered as its stats, their series-by-series sum under "fleet" —
// scalars add, faults add per site, and histogram buckets add bucket by
// bucket into exactly the histogram of all observations.
func TestRouterAggregatesStats(t *testing.T) {
	type shard struct {
		counters  map[string]uint64 // series identity -> value
		latencies map[string][]float64
		faults    map[string]uint64
	}
	mkBackend := func(sh shard) *httptest.Server {
		reg := obs.NewRegistry()
		for id, n := range sh.counters {
			name, tier, _ := strings.Cut(strings.TrimSuffix(id, `"}`), `{tier="`)
			labels := obs.Labels(nil)
			if tier != "" {
				labels = obs.Labels{"tier": tier}
			}
			reg.Counter(name, "test", labels).Add(n)
		}
		for planner, obsv := range sh.latencies {
			h := reg.Histogram("graphpipe_planner_search_seconds", "test", obs.Labels{"planner": planner}, nil)
			for _, v := range obsv {
				h.Observe(v)
			}
		}
		reg.CounterSetFunc("graphpipe_faults_injected_total", "test", "site",
			func() map[string]uint64 { return sh.faults })
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/metrics" {
				http.NotFound(w, r)
				return
			}
			reg.WriteText(w)
		}))
	}
	b1 := mkBackend(shard{
		counters:  map[string]uint64{`graphpipe_cache_hits_total{tier="memory"}`: 3, "graphpipe_planned_total": 1, "graphpipe_peer_fills_total": 2},
		latencies: map[string][]float64{"graphpipe": {0.002, 0.3}},
		faults:    map[string]uint64{"peers/http.drop": 2, "artifacts/disk.write-fail": 1},
	})
	defer b1.Close()
	b2 := mkBackend(shard{
		counters:  map[string]uint64{`graphpipe_cache_hits_total{tier="memory"}`: 4, "graphpipe_planned_total": 2, "graphpipe_rejected_total": 5},
		latencies: map[string][]float64{"graphpipe": {0.002, 7, 400}, "pipedream": {0.04}},
		faults:    map[string]uint64{"peers/http.drop": 3},
	})
	defer b2.Close()

	_, srv, _ := newTestRouter(t, RouterConfig{Backends: []string{b1.URL, b2.URL}})
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	fleet := stats.Fleet.Values
	if fleet["hits_memory"] != 7 || fleet["planned"] != 3 || fleet["peer_fills"] != 2 ||
		fleet["rejected"] != 5 || fleet["misses"] != 0 {
		t.Errorf("fleet sum = %v, want hits 7 / planned 3 / peer fills 2 / rejected 5 / misses 0", fleet)
	}
	if len(stats.Backends) != 2 || stats.Backends[b1.URL] == nil || stats.Backends[b2.URL] == nil {
		t.Fatalf("backends map = %v, want both members present", stats.Backends)
	}
	if got := stats.Backends[b1.URL].Values["hits_memory"]; got != 3 {
		t.Errorf("backend %s hits = %v, want 3", b1.URL, got)
	}

	wantFaults := map[string]uint64{"peers/http.drop": 5, "artifacts/disk.write-fail": 1}
	if fmt.Sprint(stats.Fleet.FaultsInjected) != fmt.Sprint(wantFaults) {
		t.Errorf("fleet faults = %v, want %v", stats.Fleet.FaultsInjected, wantFaults)
	}

	for planner, all := range map[string][]float64{"graphpipe": {0.002, 0.3, 0.002, 7, 400}, "pipedream": {0.04}} {
		ref := obs.NewHistogram(nil)
		for _, v := range all {
			ref.Observe(v)
		}
		want, got := ref.Snapshot(), stats.Fleet.PlannerLatency[planner]
		if got.Count != want.Count || math.Abs(got.SumSeconds-want.SumSeconds) > 1e-9 ||
			fmt.Sprint(got.Buckets) != fmt.Sprint(want.Buckets) {
			t.Errorf("fleet %s latency = %+v, want the histogram of all observations %+v", planner, got, want)
		}
	}
	if b1h := stats.Backends[b1.URL].PlannerLatency; len(b1h) != 1 || b1h["graphpipe"].Count != 2 {
		t.Errorf("backend %s latency = %+v, want its own 2 graphpipe observations", b1.URL, b1h)
	}
}
