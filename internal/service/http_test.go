package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newService(t, cfg).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeAPIError(t *testing.T, data []byte) apiError {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body is not structured JSON: %v (%q)", err, data)
	}
	return e
}

func TestHTTPPlanColdWarmAndArtifact(t *testing.T) {
	stub.reset(nil)
	srv := testServer(t, Config{})
	body := `{"model":"case-study","devices":4,"planner":"stub"}`

	cold, coldData := post(t, srv.URL+"/v1/plan", body)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold plan: %d %s", cold.StatusCode, coldData)
	}
	if src := cold.Header.Get(HeaderCache); src != "miss" {
		t.Errorf("cold %s = %q, want miss", HeaderCache, src)
	}
	fp := cold.Header.Get(HeaderFingerprint)
	if len(fp) != 64 {
		t.Fatalf("bad fingerprint header %q", fp)
	}

	warm, warmData := post(t, srv.URL+"/v1/plan", body)
	if warm.Header.Get(HeaderCache) != "hit-memory" || !bytes.Equal(warmData, coldData) {
		t.Errorf("warm plan: cache=%q, bytes identical=%v",
			warm.Header.Get(HeaderCache), bytes.Equal(warmData, coldData))
	}
	if stub.calls.Load() != 1 {
		t.Errorf("planner ran %d times over cold+warm", stub.calls.Load())
	}

	artResp, artData := get(t, srv.URL+"/v1/artifacts/"+fp)
	if artResp.StatusCode != http.StatusOK || !bytes.Equal(artData, coldData) {
		t.Errorf("artifact fetch: %d, bytes identical=%v", artResp.StatusCode, bytes.Equal(artData, coldData))
	}
	if resp, data := get(t, srv.URL+"/v1/artifacts/"+strings.Repeat("0", 64)); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing artifact: %d %s, want 404", resp.StatusCode, data)
	} else if decodeAPIError(t, data).Error != "not_found" {
		t.Errorf("missing artifact error body: %s", data)
	}
}

func TestHTTPEval(t *testing.T) {
	stub.reset(nil)
	srv := testServer(t, Config{})

	resp, data := post(t, srv.URL+"/v1/eval",
		`{"model":"case-study","devices":4,"planner":"stub","backend":"sim"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval: %d %s", resp.StatusCode, data)
	}
	var res EvalResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.Stages == 0 || res.Backend != "sim" {
		t.Errorf("eval result: %+v", res)
	}

	// Re-eval by fingerprint: warm plan, fresh evaluation.
	resp2, data2 := post(t, srv.URL+"/v1/eval", `{"fingerprint":"`+res.Fingerprint+`"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("fingerprint eval: %d %s", resp2.StatusCode, data2)
	}
	var res2 EvalResult
	if err := json.Unmarshal(data2, &res2); err != nil {
		t.Fatal(err)
	}
	if res2.PlanSource != "hit-memory" || res2.Throughput != res.Throughput {
		t.Errorf("fingerprint eval: %+v vs %+v", res2, res)
	}
}

func TestHTTPErrors(t *testing.T) {
	stub.reset(nil)
	srv := testServer(t, Config{})
	for name, tc := range map[string]struct {
		body   string
		status int
		code   string
	}{
		"unknown model":   {`{"model":"nope","devices":4}`, 400, "bad_request"},
		"no devices":      {`{"model":"mmt"}`, 400, "bad_request"},
		"not json":        {`not json`, 400, "bad_request"},
		"unknown field":   {`{"model":"mmt","devices":4,"plannr":"graphpipe"}`, 400, "bad_request"},
		"unknown planner": {`{"model":"mmt","devices":4,"planner":"nope"}`, 400, "bad_request"},
	} {
		resp, data := post(t, srv.URL+"/v1/plan", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", name, resp.StatusCode, tc.status, data)
			continue
		}
		if e := decodeAPIError(t, data); e.Error != tc.code || e.Detail == "" {
			t.Errorf("%s: error body %+v, want code %q with detail", name, e, tc.code)
		}
	}

	// Wrong method on a defined route.
	if resp, _ := get(t, srv.URL+"/v1/plan"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: %d, want 405", resp.StatusCode)
	}
}

func TestHTTPOverloadIs429(t *testing.T) {
	gate := make(chan struct{})
	stub.reset(gate)
	srv := testServer(t, Config{Workers: 1, QueueDepth: 1})

	// Saturate: one planning, one queued, then a third is shed as 429.
	done := make(chan int, 2)
	bodies := []string{
		`{"model":"case-study","devices":4,"planner":"stub"}`,
		`{"model":"case-study","devices":4,"planner":"stub","options":{"forced_micro_batch":1}}`,
		`{"model":"case-study","devices":4,"planner":"stub","options":{"forced_micro_batch":2}}`,
	}
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := post(t, srv.URL+"/v1/plan", bodies[i])
			done <- resp.StatusCode
		}()
	}
	var snap Stats
	waitFor(t, "pool saturation", func() bool {
		_, data := get(t, srv.URL+"/v1/stats")
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		return snap.Values["in_flight"] == 1 && snap.Values["queued"] == 1
	})

	resp, data := post(t, srv.URL+"/v1/plan", bodies[2])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded plan: %d %s, want 429", resp.StatusCode, data)
	}
	if e := decodeAPIError(t, data); e.Error != "overloaded" || !strings.Contains(e.Detail, "queue full") {
		t.Errorf("429 body: %+v", e)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("admitted request got %d", code)
		}
	}
}

func TestHTTPStats(t *testing.T) {
	stub.reset(nil)
	srv := testServer(t, Config{})
	body := `{"model":"case-study","devices":4,"planner":"stub"}`
	post(t, srv.URL+"/v1/plan", body)
	post(t, srv.URL+"/v1/plan", body)

	resp, data := get(t, srv.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var snap Stats
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("stats body: %v (%s)", err, data)
	}
	if snap.Values["planned"] != 1 || snap.Values["hits_memory"] != 1 || snap.Values["misses"] != 1 {
		t.Errorf("stats after cold+warm: %+v", snap)
	}
	if _, ok := snap.PlannerLatency["stub"]; !ok {
		t.Errorf("stats missing planner latency histogram: %s", data)
	}
}

// errors.Is must see through the HTTP layer's error mapping — writeError
// switches on the sentinel chain, so a wrapped ErrOverloaded arriving via
// admission still renders as 429. This pins the sentinel chains the
// mapping depends on.
func TestSentinelWrapping(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, ErrOverloaded)
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("bare ErrOverloaded → %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	writeError(rec, errors.New("boom"))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("unknown error → %d", rec.Code)
	}
}

// TestHTTPBudgetHeader pins the daemon's side of the end-to-end budget
// contract: a spent budget is a counted 504 before any work, a
// malformed one is a 400, and a budget that dies while the planner is
// still searching releases the client with a 504 at the deadline.
func TestHTTPBudgetHeader(t *testing.T) {
	gate := make(chan struct{})
	stub.reset(gate)
	defer close(gate)
	s := newService(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	send := func(budget, body string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/plan", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(HeaderBudget, budget)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp, data
	}

	resp, data := send("0", `{"model":"case-study","devices":4,"planner":"stub"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("spent budget: status = %d (%s), want 504", resp.StatusCode, data)
	}
	if e := decodeAPIError(t, data); e.Error != "deadline_exceeded" {
		t.Fatalf("spent budget: code = %q, want deadline_exceeded", e.Error)
	}

	resp, _ = send("soonish", `{"model":"case-study","devices":4,"planner":"stub"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed budget: status = %d, want 400", resp.StatusCode)
	}

	// The gate holds the planner mid-search, so this budget must expire
	// while the cold plan is in flight.
	resp, data = send("50", `{"model":"case-study","devices":4,"planner":"stub"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("mid-plan expiry: status = %d (%s), want 504", resp.StatusCode, data)
	}
	if got := s.Stats().Values["deadline_rejections"]; got != 2 {
		t.Errorf("deadline_rejections = %v, want 2 (spent + mid-plan)", got)
	}
}

// TestHTTPBodyLimit pins the request-body cap: a plan body over
// MaxBodyBytes is refused with a 400 once the limit is crossed, never
// buffered whole.
func TestHTTPBodyLimit(t *testing.T) {
	stub.reset(nil)
	srv := testServer(t, Config{})
	huge := `{"model":"` + strings.Repeat("a", MaxBodyBytes) + `","devices":4,"planner":"stub"}`
	for _, path := range []string{"/v1/plan", "/v1/eval"} {
		resp, data := post(t, srv.URL+path, huge)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with a %d-byte body: status %d, want 400", path, len(huge), resp.StatusCode)
		}
		if e := decodeAPIError(t, data); e.Error != "bad_request" || !strings.Contains(e.Detail, "too large") {
			t.Errorf("%s over-limit body: %+v", path, e)
		}
	}
	if resp, data := post(t, srv.URL+"/v1/plan", `{"model":"case-study","devices":4,"planner":"stub"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("in-limit plan after the refusals: %d %s", resp.StatusCode, data)
	}
}
