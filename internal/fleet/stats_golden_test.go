package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"graphpipe/internal/faultinject"
	"graphpipe/internal/service"
)

var updateStatsGolden = flag.Bool("update-stats-golden", false,
	"rewrite testdata/*_stats_keys.golden from this run's /v1/stats bodies")

// TestStatsKeysGolden pins the key sets of a shard's and the router's
// GET /v1/stats, in document order, against committed goldens: every
// optional key is forced present (a planner run, injected faults on
// both daemons, a backend marked down), so a renamed, dropped, or
// reordered key shows up as a diff. The router's top level must stay
// fleet, backends, router — scripts/fleet_smoke.sh greps the first
// match and relies on the fleet value coming first.
func TestStatsKeysGolden(t *testing.T) {
	shardFaults, err := faultinject.Parse("seed=1;disk.write-fail=1")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{CacheDir: t.TempDir(), Faults: shardFaults})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	shard := httptest.NewServer(svc.Handler())
	defer shard.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	routerFaults, err := faultinject.Parse("seed=1;http.latency=1:1ms")
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(RouterConfig{
		Backends:       []string{shard.URL, dead.URL},
		HealthInterval: -1,
		Faults:         routerFaults,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	router.markDown(dead.URL)
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/plan", "application/json",
		strings.NewReader(`{"model":"case-study","devices":4,"planner":"fleetstub"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status = %d", resp.StatusCode)
	}

	checkStatsKeys(t, "shard_stats_keys.golden", getBody(t, shard.URL+"/v1/stats"))
	checkStatsKeys(t, "router_stats_keys.golden", getBody(t, front.URL+"/v1/stats"))
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return data
}

func checkStatsKeys(t *testing.T, name string, body []byte) {
	t.Helper()
	got := strings.Join(appendKeys(t, nil, body, ""), "\n") + "\n"
	path := filepath.Join("testdata", name)
	if *updateStatsGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-stats-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// appendKeys appends the dotted key paths of the JSON object raw to
// keys in document order. It descends into fleet, router, and every
// backend entry (keyed "backends.*", since the keys are URLs); the
// members of data maps — histograms by planner, tallies by site,
// breaker states by backend — are values, not keys, and stay opaque.
func appendKeys(t *testing.T, keys []string, raw []byte, path string) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		k := tok.(string)
		if path == "backends" {
			k = "*"
		}
		if path != "" {
			k = path + "." + k
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
		switch k {
		case "fleet", "router", "backends", "backends.*":
			if len(v) > 0 && v[0] == '{' {
				keys = appendKeys(t, keys, v, k)
			}
		}
	}
	return keys
}
