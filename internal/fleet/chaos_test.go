package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphpipe/internal/faultinject"
	"graphpipe/internal/loadgen"
	"graphpipe/internal/service"
	"graphpipe/internal/synth"
)

// TestChaosSoakFleetDegradesAndRecovers is the PR's acceptance
// criterion, in-process: a three-shard fleet behind a verifying router,
// with seeded faults on the router→shard wire (latency, drops, injected
// 503s, truncation, corruption) and on every shard's peer wire and
// disks, replays a 320-request Zipf workload and must degrade instead
// of failing — zero non-identical 200 bodies, bounded error rate, no
// request outliving its budget — and then, once every fault window is
// provably spent (faultinject.Quiesced, not a sleep), heal completely:
// breakers re-close, and a clean replay of the same workload finishes
// with zero errors.
//
// The fault schedule is a pure function of the seeds below; a failure
// reproduces by re-running the test (see TESTING.md's chaos tier).
func TestChaosSoakFleetDegradesAndRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak: multi-second fleet replay, skipped in -short")
	}

	// Boot three shards whose ring URLs are known before their servers
	// exist, each with its own seeded fault set on peer wire + disks.
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
	shardFaults := make([]*faultinject.Set, n)
	for i := range servers {
		shardFaults[i], err = faultinject.Parse(fmt.Sprintf(
			"seed=%d;window=40;http.drop=0.2;disk.write-fail=0.1;disk.write-partial=0.1", 100+i))
		if err != nil {
			t.Fatal(err)
		}
		svc, err := service.New(service.Config{
			CacheDir:      t.TempDir(),
			MemoryEntries: 512,
			Faults:        shardFaults[i],
			Peers: &service.PeerConfig{
				Self:        urls[i],
				Backends:    urls,
				Ranker:      ring,
				FillTimeout: 500 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i].Config.Handler = svc.Handler()
		servers[i].Start()
		defer servers[i].Close()
		defer svc.Close()
	}

	// The router's wire is the sickest: five fault kinds, windowed so
	// the chaos provably ends. Verification is on — a corrupt or torn
	// 200 must become a failover, never a wrong byte relayed.
	routerFaults, err := faultinject.Parse(
		"seed=11;window=240;http.latency=0.2:30ms;http.drop=0.05;http.err5xx=0.05;http.truncate=0.05;http.corrupt=0.03")
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(RouterConfig{
		Backends:        urls,
		HealthInterval:  150 * time.Millisecond,
		JitterSeed:      7,
		Breaker:         BreakerConfig{FailureThreshold: 2, OpenFor: 50 * time.Millisecond},
		VerifyArtifacts: true,
		Faults:          routerFaults,
		Client:          &http.Client{Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	client := &http.Client{Timeout: 10 * time.Second}
	workload := loadgen.Config{
		Target:      front.URL,
		Concurrency: 4,
		ZipfS:       1.1,
		Population:  12,
		Planner:     "graphpipe",
		Seed:        42,
		BudgetMs:    3000,
		VerifyPlans: true,
		Pace:        10 * time.Millisecond,
		Client:      client,
	}

	// Phase 1: replay under fire. The fleet may shed and error, but
	// every 200 is byte-true, errors stay bounded, and nothing outlives
	// its 3s budget (the 10s client timeout would surface a hang as an
	// error and a >=10s latency max).
	faulty := workload
	faulty.Requests = 320
	res, err := loadgen.Run(faulty)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("faulty phase: %d/%d ok, %d shed, %d errors, %d deadline, %d alternates, rate %.3f, max %.2fs",
		res.Completed, res.Requests, res.Shed, res.Errors, res.DeadlineExceeded, res.AlternatePlans, res.ErrorRate, res.Overall.Max)
	if got := res.Completed + res.Shed + res.Errors + res.DeadlineExceeded; got != res.Requests {
		t.Fatalf("outcome ledger %d does not reconcile with %d requests", got, res.Requests)
	}
	if res.ByteMismatches != 0 {
		t.Fatalf("%d byte mismatches under faults: a corrupt body was relayed as a 200", res.ByteMismatches)
	}
	if res.Completed == 0 {
		t.Fatal("no request completed under faults: the fleet failed instead of degrading")
	}
	if res.ErrorRate > 0.45 {
		t.Fatalf("error rate %.3f exceeds the 0.45 degradation bound", res.ErrorRate)
	}
	if res.Overall.Max > 8 {
		t.Fatalf("slowest request took %.2fs: something outlived its 3s budget", res.Overall.Max)
	}

	// Drain: pose fresh planning questions until every fault window —
	// router wire, each shard's peer wire and disks — is provably
	// spent. Fresh questions force the full path (peer walk, planner,
	// artifact + memo writes), so each one advances every site's stream.
	quiesced := func() bool {
		if !routerFaults.Quiesced() {
			return false
		}
		for _, fs := range shardFaults {
			if !fs.Quiesced() {
				return false
			}
		}
		return true
	}
	specs, err := synth.Population(nil, 400, 777)
	if err != nil {
		t.Fatal(err)
	}
	drainBody := func(i int) string {
		return fmt.Sprintf(`{"model":%q,"devices":%d,"planner":"graphpipe"}`,
			specs[i%len(specs)].String(), 2+i%3)
	}
	drained := 0
	for ; drained < len(specs) && !quiesced(); drained++ {
		postPlan(client, front.URL, drainBody(drained))
	}
	if !quiesced() {
		t.Fatalf("fault windows not spent after %d drain requests; router tallies %v, shard tallies %v %v %v",
			drained, routerFaults.Tallies(), shardFaults[0].Tallies(), shardFaults[1].Tallies(), shardFaults[2].Tallies())
	}
	t.Logf("all fault windows quiesced after %d drain requests", drained)

	// Heal: breakers tripped during the window re-close only through
	// admitted traffic. Keep posing fresh questions (each lands on a
	// seed-determined primary) until every breaker reports closed; past
	// the window every attempt succeeds, so this converges.
	time.Sleep(250 * time.Millisecond) // let the last OpenFor elapse
	healDeadline := time.Now().Add(30 * time.Second)
	for i := drained; ; i++ {
		stats := fetchFleetStats(t, client, front.URL)
		if breakersAllClosed(stats) {
			break
		}
		if time.Now().After(healDeadline) {
			t.Fatalf("breakers did not all re-close after the fault window: %v", stats.Router.Breakers)
		}
		postPlan(client, front.URL, drainBody(i))
		time.Sleep(25 * time.Millisecond)
	}

	// Phase 2: the same workload on the healed fleet must be clean —
	// no errors, no budget expiries, byte-true throughout.
	clean := workload
	clean.Requests = 150
	res2, err := loadgen.Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("clean phase: %d/%d ok, %d shed, %d errors, %d deadline",
		res2.Completed, res2.Requests, res2.Shed, res2.Errors, res2.DeadlineExceeded)
	if res2.Errors != 0 || res2.DeadlineExceeded != 0 {
		t.Fatalf("recovered fleet still failing: %d errors, %d deadline expiries", res2.Errors, res2.DeadlineExceeded)
	}
	if res2.ByteMismatches != 0 {
		t.Fatalf("%d byte mismatches on the healed fleet", res2.ByteMismatches)
	}
	if res2.Completed+res2.Shed != res2.Requests {
		t.Fatalf("clean phase ledger: %d completed + %d shed != %d requests", res2.Completed, res2.Shed, res2.Requests)
	}

	// Final ledger: the faults demonstrably happened (at least four
	// router-wire kinds plus shard-side injections), verification caught
	// real corruption, breakers opened — and everything is closed now.
	stats := fetchFleetStats(t, client, front.URL)
	if !breakersAllClosed(stats) {
		t.Fatalf("breakers not all closed at end: %v", stats.Router.Breakers)
	}
	if stats.Router.Values["breaker_opens"] == 0 {
		t.Fatal("no breaker ever opened: the fault window was not felt")
	}
	if stats.Router.Values["corrupt_bodies"] == 0 {
		t.Fatal("no corrupt body was caught: verification never fired under corruption faults")
	}
	kinds := make(map[string]bool)
	for site := range stats.Router.FaultsInjected {
		if _, kind, ok := strings.Cut(site, "/"); ok {
			kinds[kind] = true
		}
	}
	if len(kinds) < 4 {
		t.Fatalf("router injected only %d fault kinds (%v), want >= 4", len(kinds), stats.Router.FaultsInjected)
	}
	if len(stats.Fleet.FaultsInjected) == 0 {
		t.Fatal("no shard-side fault tallies in the fleet snapshot")
	}
}

// postPlan fires one planning request and discards the outcome: drain
// and heal traffic only exists to advance fault streams and breakers.
func postPlan(client *http.Client, base, body string) {
	resp, err := client.Post(base+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func fetchFleetStats(t *testing.T, client *http.Client, base string) FleetStats {
	t.Helper()
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

func breakersAllClosed(stats FleetStats) bool {
	if len(stats.Router.Breakers) == 0 {
		return false
	}
	for _, state := range stats.Router.Breakers {
		if state != "closed" {
			return false
		}
	}
	return true
}
