package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphpipe/internal/service"
	"graphpipe/internal/strategy"
)

// testArtifact builds a minimal valid artifact and returns (fingerprint,
// encoded bytes): the real thing the router's verification gate checks,
// without running a planner.
func testArtifact(t *testing.T) (string, []byte) {
	t.Helper()
	art := &strategy.Artifact{
		Model:     "resilience-model",
		Devices:   2,
		MiniBatch: 4,
		Planner:   strategy.PlannerMeta{Name: "graphpipe"},
		Strategy:  &strategy.Strategy{MiniBatch: 4, Planner: "graphpipe"},
	}
	data, err := strategy.EncodeArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	return art.Fingerprint(), data
}

// TestRouterBudgetExpiryReturns504 pins deadline propagation at the
// router: a request whose budget dies while the backend is still
// thinking gets a counted 504, and — because a dead budget proves
// nothing about backend health — the breaker must NOT trip, however
// many budgets die.
func TestRouterBudgetExpiryReturns504(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(5 * time.Second):
		case <-r.Context().Done():
		}
	}))
	defer backend.Close()

	r, srv, _ := newTestRouter(t, RouterConfig{
		Backends: []string{backend.URL},
		Breaker:  BreakerConfig{FailureThreshold: 2},
	})

	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/plan", strings.NewReader(planBody))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(service.HeaderBudget, "40")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status = %d (%s), want 504", i, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "deadline_exceeded") {
			t.Fatalf("request %d: body %q missing deadline_exceeded code", i, body)
		}
	}
	if got := r.deadlineRejections.Value(); got != 3 {
		t.Errorf("deadline_rejections = %d, want 3", got)
	}
	// Three dead budgets crossed a threshold of two; a Record(false) per
	// expiry would have tripped the breaker on a healthy-but-slow backend.
	if got := r.breakers[backend.URL].State(); got != BreakerClosed {
		t.Errorf("breaker = %s after budget expiries, want closed (deadlines are not failures)", got)
	}
}

// TestRouterBudgetHeaderValidation pins the edges of the budget header:
// a spent budget is an immediate counted 504 and garbage is a 400,
// neither consuming a backend attempt.
func TestRouterBudgetHeaderValidation(t *testing.T) {
	var backendCalls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backendCalls.Add(1)
	}))
	defer backend.Close()

	r, srv, _ := newTestRouter(t, RouterConfig{Backends: []string{backend.URL}})
	for _, tc := range []struct {
		header string
		want   int
	}{
		{"0", http.StatusGatewayTimeout},
		{"-5", http.StatusGatewayTimeout},
		{"soon", http.StatusBadRequest},
	} {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/plan", strings.NewReader(planBody))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(service.HeaderBudget, tc.header)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("budget %q: status = %d, want %d", tc.header, resp.StatusCode, tc.want)
		}
	}
	if got := backendCalls.Load(); got != 0 {
		t.Errorf("backend saw %d calls for rejected budgets, want 0", got)
	}
	if got := r.deadlineRejections.Value(); got != 2 {
		t.Errorf("deadline_rejections = %d, want 2 (spent budgets only)", got)
	}
}

// TestRouterForwardsRemainingBudget pins hop-by-hop budget propagation:
// the shard receives HeaderBudget holding the budget's remainder, so its
// own peer consults and planner waits are bounded by what the client
// will still accept.
func TestRouterForwardsRemainingBudget(t *testing.T) {
	var seen atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ms, err := strconv.Atoi(r.Header.Get(service.HeaderBudget))
		if err != nil {
			ms = -1
		}
		seen.Store(int64(ms))
		w.Write([]byte(`{"ok":true}`))
	}))
	defer backend.Close()

	_, srv, _ := newTestRouter(t, RouterConfig{
		Backends:      []string{backend.URL},
		DefaultBudget: 500 * time.Millisecond,
	})
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(planBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ms := seen.Load(); ms <= 0 || ms > 500 {
		t.Errorf("shard saw budget %dms, want in (0, 500] (the DefaultBudget's remainder)", ms)
	}
}

// TestRouterVerifiesBodiesAndFailsOver pins the no-wrong-bytes
// guarantee: a 200 artifact body that does not hash to its fingerprint
// is never relayed — the router counts it, records a breaker failure,
// and fails over to the next replica, whose verified bytes win.
func TestRouterVerifiesBodiesAndFailsOver(t *testing.T) {
	fp, good := testArtifact(t)
	corrupt := []byte(strings.Replace(string(good), "resilience-model", "tampered---model", 1))

	bodies := make(map[string][]byte)
	mk := func() *httptest.Server {
		var s *httptest.Server
		s = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(bodies[s.URL])
		}))
		return s
	}
	b1, b2 := mk(), mk()
	defer b1.Close()
	defer b2.Close()

	r, srv, _ := newTestRouter(t, RouterConfig{
		Backends:        []string{b1.URL, b2.URL},
		VerifyArtifacts: true,
	})
	cands := r.candidates(fp)
	if len(cands) != 2 {
		t.Fatalf("candidates = %v, want both backends", cands)
	}
	bodies[cands[0]] = corrupt
	bodies[cands[1]] = good

	resp, err := http.Get(srv.URL + "/v1/artifacts/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 from the failover replica", resp.StatusCode)
	}
	if string(got) != string(good) {
		t.Fatal("router relayed bytes that are not the verified artifact")
	}
	if backend := resp.Header.Get(HeaderBackend); backend != cands[1] {
		t.Errorf("answered by %s, want the second candidate %s", backend, cands[1])
	}
	if got := r.corruptBodies.Value(); got != 1 {
		t.Errorf("corrupt_bodies = %d, want 1", got)
	}
	if got := r.failovers.Value(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
}

// TestRouterVerificationRejectsWhenNoReplicaIsClean pins the give-up
// side of verification: when every replica serves corrupt bytes, the
// client gets an error status — never the corrupt body with a 200.
func TestRouterVerificationRejectsWhenNoReplicaIsClean(t *testing.T) {
	fp, good := testArtifact(t)
	corrupt := []byte(strings.Replace(string(good), "resilience-model", "tampered---model", 1))

	mk := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(corrupt)
		}))
	}
	b1, b2 := mk(), mk()
	defer b1.Close()
	defer b2.Close()

	r, srv, _ := newTestRouter(t, RouterConfig{
		Backends:        []string{b1.URL, b2.URL},
		VerifyArtifacts: true,
	})
	resp, err := http.Get(srv.URL + "/v1/artifacts/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d (%s), want 502 when no replica verifies", resp.StatusCode, body)
	}
	if got := r.corruptBodies.Value(); got != 2 {
		t.Errorf("corrupt_bodies = %d, want 2", got)
	}
}

// TestRouterHedgedArtifactRead pins hedging: when the owning replica
// sits on an artifact GET past HedgeDelay, a second read launches at the
// next replica and its verified answer wins, counted as a hedge win.
func TestRouterHedgedArtifactRead(t *testing.T) {
	fp, good := testArtifact(t)

	slow := make(map[string]bool)
	mk := func() *httptest.Server {
		var s *httptest.Server
		s = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if slow[s.URL] {
				select {
				case <-time.After(5 * time.Second):
				case <-r.Context().Done():
					return
				}
			}
			w.Write(good)
		}))
		return s
	}
	b1, b2 := mk(), mk()
	defer b1.Close()
	defer b2.Close()

	r, srv, _ := newTestRouter(t, RouterConfig{
		Backends:        []string{b1.URL, b2.URL},
		VerifyArtifacts: true,
		HedgeDelay:      20 * time.Millisecond,
	})
	cands := r.candidates(fp)
	slow[cands[0]] = true

	start := time.Now()
	resp, err := http.Get(srv.URL + "/v1/artifacts/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 from the hedge", resp.StatusCode)
	}
	if string(got) != string(good) {
		t.Fatal("hedged read relayed wrong bytes")
	}
	if backend := resp.Header.Get(HeaderBackend); backend != cands[1] {
		t.Errorf("answered by %s, want the hedge target %s", backend, cands[1])
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("hedged read took %v; the hedge should beat the slow owner by seconds", elapsed)
	}
	if got := r.hedged.Value(); got != 1 {
		t.Errorf("hedged = %d, want 1", got)
	}
	if got := r.hedgeWins.Value(); got != 1 {
		t.Errorf("hedge_wins = %d, want 1", got)
	}
}

// TestRouterBreakerTripAndRecovery drives the breaker through the HTTP
// surface: repeated backend 5xxs trip it (503 breaker_open while open),
// and once the open window elapses and the backend heals, half-open
// trial traffic re-closes it — the degrade-then-recover loop the chaos
// soak asserts at fleet scale.
func TestRouterBreakerTripAndRecovery(t *testing.T) {
	var healthy atomic.Bool
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"internal","detail":"injected"}`))
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer backend.Close()

	clk := newFakeClock()
	r, srv, _ := newTestRouter(t, RouterConfig{
		Backends: []string{backend.URL},
		Breaker: BreakerConfig{
			FailureThreshold: 2,
			OpenFor:          10 * time.Second,
			now:              clk.now,
		},
	})
	post := func() *http.Response {
		resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(planBody))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// Two failures trip the breaker; each relays the backend's own 500
	// (the healthiest truth left once every replica failed).
	for i := 0; i < 2; i++ {
		if resp := post(); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status = %d, want relayed 500", i, resp.StatusCode)
		}
	}
	if got := r.breakers[backend.URL].State(); got != BreakerOpen {
		t.Fatalf("breaker = %s after threshold failures, want open", got)
	}

	// While open, requests are rejected without touching the backend.
	if resp := post(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker status = %d, want 503", resp.StatusCode)
	}
	if got := r.breakerRejections.Value(); got != 1 {
		t.Errorf("breaker_rejections = %d, want 1", got)
	}

	// Window elapses, backend heals: the half-open probe succeeds and
	// closes the circuit for good.
	clk.advance(10 * time.Second)
	healthy.Store(true)
	if resp := post(); resp.StatusCode != http.StatusOK {
		t.Fatalf("half-open probe status = %d, want 200", resp.StatusCode)
	}
	if got := r.breakers[backend.URL].State(); got != BreakerClosed {
		t.Fatalf("breaker = %s after successful probe, want closed", got)
	}
	if resp := post(); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status = %d, want 200", resp.StatusCode)
	}

	// The trip and states are visible in /v1/stats.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Router.Values["breaker_opens"] != 1 {
		t.Errorf("stats breaker_opens = %v, want 1", stats.Router.Values["breaker_opens"])
	}
	if got := stats.Router.Breakers[backend.URL]; got != "closed" {
		t.Errorf("stats breakers[%s] = %q, want closed", backend.URL, got)
	}
}

// TestRouterBackendGatewayTimeoutIsNotABreakerFailure pins a subtle
// classification rule: a 504 from a shard reports the router's OWN
// forwarded budget dying inside it — counting it as a backend failure
// would let tight client budgets open breakers on healthy shards.
func TestRouterBackendGatewayTimeoutIsNotABreakerFailure(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusGatewayTimeout)
		w.Write([]byte(`{"error":"deadline_exceeded","detail":"budget spent"}`))
	}))
	defer backend.Close()

	r, srv, _ := newTestRouter(t, RouterConfig{
		Backends: []string{backend.URL},
		Breaker:  BreakerConfig{FailureThreshold: 1},
	})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(planBody))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want the shard's 504 relayed", resp.StatusCode)
		}
	}
	if got := r.breakers[backend.URL].State(); got != BreakerClosed {
		t.Errorf("breaker = %s after relayed 504s (threshold 1), want closed", got)
	}
}
