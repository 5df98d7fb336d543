package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"graphpipe/internal/cluster"
	"graphpipe/internal/graph"
	"graphpipe/internal/planner"
	"graphpipe/internal/service"
	"graphpipe/internal/strategy"
)

// countingPlanner wraps the real planner so the fleet test can prove how
// many cold searches the whole fleet ran.
type countingPlanner struct{ calls atomic.Int64 }

func init() { planner.Register(&fleetStub) }

var fleetStub countingPlanner

func (p *countingPlanner) Name() string { return "fleetstub" }

func (p *countingPlanner) Plan(g *graph.Graph, topo *cluster.Topology, miniBatch int, opts planner.Options) (*strategy.Strategy, planner.Stats, error) {
	p.calls.Add(1)
	real, err := planner.Get("graphpipe")
	if err != nil {
		return nil, planner.Stats{}, err
	}
	return real.Plan(g, topo, miniBatch, opts)
}

// TestFleetServesPlanByteIdenticallyFromEveryShard is the PR's
// acceptance criterion end to end, in-process: a three-shard fleet with
// a shared ring serves a plan computed cold on exactly one shard
// byte-identically from every other shard via peer cache-fill, with no
// second cold search anywhere.
func TestFleetServesPlanByteIdenticallyFromEveryShard(t *testing.T) {
	fleetStub.calls.Store(0)

	// Boot three daemons whose ring URLs are known before their servers
	// exist: httptest.NewUnstartedServer assigns the listener first.
	const n = 3
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + servers[i].Listener.Addr().String()
	}
	ring, err := NewRing(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	services := make([]*service.Service, n)
	for i := range servers {
		svc, err := service.New(service.Config{
			CacheDir: t.TempDir(),
			Peers: &service.PeerConfig{
				Self:     urls[i],
				Backends: urls,
				Ranker:   ring,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		services[i] = svc
		servers[i].Config.Handler = svc.Handler()
		servers[i].Start()
		defer servers[i].Close()
		defer svc.Close()
	}

	router, err := NewRouter(RouterConfig{Backends: urls, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	// One cold plan through the router.
	body := `{"model":"case-study","devices":4,"planner":"fleetstub"}`
	resp, err := http.Post(front.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	planBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status = %d: %s", resp.StatusCode, planBytes)
	}
	if src := resp.Header.Get(service.HeaderCache); src != "miss" {
		t.Fatalf("first plan source = %q, want miss", src)
	}
	fp := resp.Header.Get(service.HeaderFingerprint)
	owner := resp.Header.Get(HeaderBackend)
	if fp == "" || owner == "" {
		t.Fatalf("response missing fingerprint (%q) or backend (%q) header", fp, owner)
	}
	if want := ring.Owner(fp); owner != want {
		t.Fatalf("plan answered by %s, ring owner is %s", owner, want)
	}

	// Every shard must now serve the artifact byte-identically — the
	// owner from its cache, the other two via peer fill — without any
	// shard re-running the search.
	for i, u := range urls {
		resp, err := http.Get(u + "/v1/artifacts/" + fp)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d: artifact status = %d", i, resp.StatusCode)
		}
		if !bytes.Equal(got, planBytes) {
			t.Fatalf("shard %d served different artifact bytes than the plan response", i)
		}
	}
	if got := fleetStub.calls.Load(); got != 1 {
		t.Fatalf("planner ran %d times across the fleet, want exactly 1 (peer fill, not re-plan)", got)
	}

	// The two non-owners filled from a peer; their local tiers now hold
	// the plan, so a second artifact read must not consult anyone.
	var fills float64
	for i, svc := range services {
		snap := svc.Stats()
		if snap.Values["planned"] > 1 {
			t.Fatalf("shard %d planned %v times", i, snap.Values["planned"])
		}
		fills += snap.Values["peer_fills"]
		if urls[i] != owner && snap.Values["peer_fills"] != 1 {
			t.Fatalf("non-owner shard %d has %v peer fills, want 1", i, snap.Values["peer_fills"])
		}
	}
	if fills != n-1 {
		t.Fatalf("fleet peer fills = %v, want %v", fills, n-1)
	}

	// Replaying the same question through the router is warm: the owner
	// serves from memory.
	resp, err = http.Post(front.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if src := resp.Header.Get(service.HeaderCache); src != "hit-memory" {
		t.Fatalf("replayed plan source = %q, want hit-memory", src)
	}
	if !bytes.Equal(warm, planBytes) {
		t.Fatal("warm replay served different bytes")
	}

	// Fleet-aggregated stats see the whole story: one planner run,
	// n-1 peer fills.
	resp, err = http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Fleet.Values["planned"] != 1 || stats.Fleet.Values["peer_fills"] != n-1 {
		t.Fatalf("fleet stats = %v planned / %v peer fills, want 1 / %v",
			stats.Fleet.Values["planned"], stats.Fleet.Values["peer_fills"], n-1)
	}
}
