package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graphpipe/internal/obs"
)

// TestStatsAndMetricsAgree is the unified-surface check: after a
// scripted request mix, every key /v1/stats reports in JSON must equal
// its series scraped from /metrics in Prometheus text. /v1/stats renders
// from the same registry by construction — this test exists to keep the
// *table* honest (a key naming a series nobody registers reads 0 in
// JSON and shows up here as a missing series).
func TestStatsAndMetricsAgree(t *testing.T) {
	s := newService(t, Config{CacheDir: t.TempDir()})
	handler := s.Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		var rd *strings.Reader
		if body != "" {
			rd = strings.NewReader(body)
		} else {
			rd = strings.NewReader("")
		}
		req := httptest.NewRequest(method, path, rd)
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec
	}

	// The mix: two distinct cold plans, a memory hit, a disk-tier reload
	// is not scriptable in-process (the memory tier absorbs repeats), an
	// eval piggyback, an artifact fetch, and one guaranteed 400.
	plan := `{"model":"case-study","devices":4,"planner":"stub"}`
	plan2 := `{"model":"synth:chain/seed=1","devices":4,"planner":"stub"}`
	first := do(http.MethodPost, "/v1/plan", plan)
	if first.Code != http.StatusOK {
		t.Fatalf("cold plan status %d: %s", first.Code, first.Body)
	}
	fp := first.Header().Get(HeaderFingerprint)
	for _, req := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/plan", plan2},
		{http.MethodPost, "/v1/plan", plan},  // hit-memory
		{http.MethodPost, "/v1/plan", plan2}, // hit-memory
		{http.MethodPost, "/v1/eval", `{"model":"case-study","devices":4,"planner":"stub"}`},
		{http.MethodGet, "/v1/artifacts/" + fp, ""},
	} {
		if rec := do(req.method, req.path, req.body); rec.Code != http.StatusOK {
			t.Fatalf("%s %s status %d: %s", req.method, req.path, rec.Code, rec.Body)
		}
	}

	statsRec := do(http.MethodGet, "/v1/stats", "")
	var snap Stats
	if err := json.Unmarshal(statsRec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	metricsRec := do(http.MethodGet, "/metrics", "")
	if ct := metricsRec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics Content-Type = %q, want the 0.0.4 exposition type", ct)
	}
	series, err := obs.ParseText(metricsRec.Body)
	if err != nil {
		t.Fatalf("metrics exposition: %v", err)
	}

	// Sanity-pin a few absolute values so the identity check below can't
	// pass vacuously on a fleet of zeros.
	v := snap.Values
	if v["misses"] != 2 || v["hits_memory"] < 2 || v["planned"] != 2 || v["evals"] != 1 {
		t.Fatalf("scripted mix landed wrong: misses=%v hitsMem=%v planned=%v evals=%v",
			v["misses"], v["hits_memory"], v["planned"], v["evals"])
	}

	// Every key of the stats table equals its series on /metrics. This
	// daemon has a memo store, so every series is registered; the stats
	// request itself moved no counter between the two reads.
	for _, c := range statsView {
		got, ok := series[c.Series]
		if !ok {
			t.Errorf("%s: series %s missing from /metrics", c.Key, c.Series)
			continue
		}
		if got != v[c.Key] {
			t.Errorf("%s = %v on /v1/stats but %s = %v on /metrics", c.Key, v[c.Key], c.Series, got)
		}
	}
	if len(v) != len(statsView) {
		t.Errorf("/v1/stats carries %d scalar keys, the stats table %d", len(v), len(statsView))
	}

	// The planner latency histogram carries the same observation count
	// as the JSON stats'.
	h, ok := snap.PlannerLatency["stub"]
	if !ok {
		t.Fatal("no stub planner latency in /v1/stats")
	}
	if got := series[`graphpipe_planner_search_seconds_count{planner="stub"}`]; uint64(got) != h.Count {
		t.Errorf("planner histogram count: %v on /metrics, %d on /v1/stats", got, h.Count)
	}
	// Request latency landed per route, including this scrape's own
	// route family being registered.
	if got := series[`graphpipe_request_seconds_count{route="plan"}`]; got < 4 {
		t.Errorf("request_seconds{route=plan} count = %v, want >= 4", got)
	}
}
