package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"graphpipe/internal/obs"
)

// TestConcurrentSynthSpecRequests drives the service's hot paths —
// fingerprinting, cache lookup, singleflight, admission, stats — with
// concurrent traffic over synthetic-model specs, under -race in CI.
// The workload mixes repeated identical specs (singleflight and warm
// hits), distinct specs (cold planner runs), eval piggybacks, and
// continuous Stats() polling, then checks the accounting invariants:
// every request is classified exactly once, and the planner ran at
// most once per distinct fingerprint.
//
// It also pins the tentpole's end-to-end claim: a synth: spec is a
// first-class model name all the way through the planning service.
func TestConcurrentSynthSpecRequests(t *testing.T) {
	s := newService(t, Config{})
	const (
		workers  = 8
		rounds   = 6
		distinct = 4 // distinct synth specs, each hit by every worker
	)
	spec := func(i int) string { return fmt.Sprintf("synth:fanout/seed=%d", i%distinct) }

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		byFP     = map[string][]byte{}
		firstErr error
	)
	record := func(fp string, data []byte, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		if prev, ok := byFP[fp]; ok {
			if !bytes.Equal(prev, data) {
				firstErr = fmt.Errorf("fingerprint %s served different bytes", fp)
			}
			return
		}
		byFP[fp] = data
	}

	// A scraper races GET /metrics against the counters' hot-path
	// increments and the histogram locks: the exposition writer must
	// stay parseable mid-hammer, not just at rest.
	handler := s.Handler()
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if rec.Code != http.StatusOK {
				record("", nil, fmt.Errorf("/metrics status %d", rec.Code))
				return
			}
			if _, err := obs.ParseText(rec.Body); err != nil {
				record("", nil, fmt.Errorf("/metrics unparseable mid-hammer: %v", err))
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				req := Request{Model: spec(w + r), Devices: 4}
				switch r % 3 {
				case 0, 1:
					res, err := s.Plan(context.Background(), req)
					if err != nil {
						record("", nil, err)
						continue
					}
					record(res.Fingerprint, res.Data, nil)
				case 2:
					res, err := s.Eval(context.Background(), EvalRequest{Request: req})
					if err != nil {
						record("", nil, err)
						continue
					}
					if res.Throughput <= 0 {
						record("", nil, fmt.Errorf("eval of %s: degenerate throughput %g",
							req.Model, res.Throughput))
					}
				}
				// Stats polling races the counters' hot-path increments.
				_ = s.Stats()
			}
		}(w)
	}
	wg.Wait()
	close(stopScrape)
	scrapeWG.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if len(byFP) != distinct {
		t.Errorf("saw %d distinct fingerprints, want %d", len(byFP), distinct)
	}

	snap := s.Stats()
	totalPlanPath := snap.Values["hits_memory"] + snap.Values["hits_disk"] + snap.Values["misses"]
	if totalPlanPath == 0 {
		t.Fatal("no plan-path requests recorded")
	}
	// Every miss resolved either to an owned planner run or a shared
	// wait, and nothing planned twice per fingerprint.
	if snap.Values["planned"]+snap.Values["shared_waits"] != snap.Values["misses"] {
		t.Errorf("misses %v != planned %v + shared %v",
			snap.Values["misses"], snap.Values["planned"], snap.Values["shared_waits"])
	}
	if snap.Values["planned"] != float64(distinct) {
		t.Errorf("planner ran %v times for %v distinct specs", snap.Values["planned"], distinct)
	}
	if snap.Values["rejected"] != 0 {
		t.Errorf("default config shed %v requests", snap.Values["rejected"])
	}
	if snap.Values["in_flight"] != 0 || snap.Values["queued"] != 0 {
		t.Errorf("gauges not drained: in-flight %v queued %v", snap.Values["in_flight"], snap.Values["queued"])
	}
}

// TestSynthSpecBadRequests pins the 400 class for malformed synth
// specs: canonicalization rejects them before any planner work.
func TestSynthSpecBadRequests(t *testing.T) {
	s := newService(t, Config{})
	for _, model := range []string{
		"synth:",                  // no family
		"synth:bogus/seed=1",      // unknown family
		"synth:chain",             // missing seed
		"synth:chain/seed=1/d=up", // unknown knob
		"synth:skew/seed=1/skew=NaN",
		"synth:nested/seed=1/nesting=16",               // 2^16 segments
		"synth:fanout/seed=1/depth=1024/branches=1024", // 2^20 operators
	} {
		_, err := s.Plan(context.Background(), Request{Model: model, Devices: 4})
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("Plan(%q) = %v, want ErrBadRequest", model, err)
		}
	}
}

// TestSynthSpecFingerprintResolution pins that synth requests are
// canonicalized to the *resolved* spec before hashing, exactly like
// the zero mini-batch default: the seed-only shorthand and the fully
// knob-spelled resolved form are the same planning question and share
// one fingerprint, cache entry, and artifact — whose Model metadata
// pins every derived knob.
func TestSynthSpecFingerprintResolution(t *testing.T) {
	s := newService(t, Config{})
	a, err := s.Plan(context.Background(), Request{Model: "synth:chain/seed=2", Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Artifact.Model == "synth:chain/seed=2" || !strings.Contains(a.Artifact.Model, "synth:chain/seed=2/") {
		t.Errorf("artifact stores %q, want the resolved spec", a.Artifact.Model)
	}
	// Both the shorthand and the resolved spelling hit the same entry.
	for _, spelling := range []string{"synth:chain/seed=2", a.Artifact.Model} {
		b, err := s.Plan(context.Background(), Request{Model: spelling, Devices: 4})
		if err != nil {
			t.Fatal(err)
		}
		if b.Fingerprint != a.Fingerprint || !bytes.Equal(b.Data, a.Data) {
			t.Errorf("spelling %q did not share the cached plan", spelling)
		}
		if b.Source == "miss" {
			t.Errorf("spelling %q source %q, want a cache hit", spelling, b.Source)
		}
	}
	// The artifact's metadata rebuilds the same graph: eval by
	// fingerprint alone succeeds.
	res, err := s.Eval(context.Background(), EvalRequest{Fingerprint: a.Fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanSource != "hit-memory" || res.Throughput <= 0 {
		t.Errorf("eval by fingerprint: %+v", res)
	}
}
