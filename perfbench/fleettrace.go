package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"graphpipe/internal/fleet"
	"graphpipe/internal/models"
	"graphpipe/internal/service"
	"graphpipe/internal/strategy"
)

// probeRepeats is how many times each warm probe is repeated; its median
// is used.
const probeRepeats = 15

// fleetTrace splits fleet-zipf across layers. Counts are /metrics deltas
// from the daemons over the replays, per request; the warm-ups did all
// the planning, so core.* read 0. Times come from probes on the last
// fleet after its replay, on the fleetHot most popular questions, all
// warm by then: the router round trip (trace.op_s), the same request sent
// straight to the shard that answered it (fleet.direct_s), a no-op
// loopback round trip (fleet.floor_s), and in-process calls of the
// service and strategy functions the daemons run on that request.
func fleetTrace(ctx context.Context, f *fleetProcs, rep *loadReport, records []loadRecord,
	plans map[int]servedPlan, deltas map[string]float64, untracedP50 float64) (map[string]metric, error) {
	n := 0
	l := newLayers()
	for _, r := range records {
		if r.Status == http.StatusOK {
			n++
			l.addCount("strategy.artifact_bytes", float64(r.Bytes))
		}
	}
	delta := func(series string) float64 { return deltas[series] }
	counts := map[string]string{
		"service.hit_memory":   `graphpipe_cache_hits_total{tier="memory"}`,
		"service.hit_disk":     `graphpipe_cache_hits_total{tier="disk"}`,
		"service.hit_peer":     "graphpipe_peer_fills_total",
		"service.planned":      "graphpipe_planned_total",
		"service.shared_waits": "graphpipe_shared_waits_total",
		"service.rejected":     "graphpipe_rejected_total",
		"fleet.failovers":      "graphpipe_router_failovers_total",
		"fleet.retried_429":    "graphpipe_router_retried_429_total",
	}
	for name, series := range counts {
		l.addCount(name, delta(series))
	}
	m := l.report(n)
	hits := delta(counts["service.hit_memory"]) + delta(counts["service.hit_disk"]) + delta(counts["service.hit_peer"])
	lookups := delta(counts["service.hit_memory"]) + delta(counts["service.hit_disk"]) + delta("graphpipe_cache_misses_total")
	if lookups > 0 {
		m["service.hit_ratio"] = metric{Value: hits / lookups, Unit: "ratio", n: int(lookups)}
	}

	floor, stopFloor, err := floorProbe()
	if err != nil {
		return nil, err
	}
	defer stopFloor()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	pr := &prober{}
	var routed, direct, fingerprint, build, warm, cold, verify, encode, floors []float64
	for q := 0; q < fleetHot; q++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		body := rep.Questions[q]
		p := plans[q]
		var req service.Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			return nil, err
		}
		backend := ""
		routed = append(routed, pr.median(func() error {
			var err error
			backend, err = post(client, f.router, body)
			return err
		}))
		direct = append(direct, pr.median(func() error { _, err := post(client, backend, body); return err }))
		floors = append(floors, pr.median(func() error { return floor(client) }))
		fingerprint = append(fingerprint, pr.median(func() error { _, err := req.CanonicalFingerprint(); return err }))
		build = append(build, pr.median(func() error {
			_, _, err := models.Build(p.art.Model, p.art.Branches, p.art.Devices)
			return err
		}))
		start := time.Now()
		if _, err := svc.Plan(ctx, req); err != nil {
			return nil, err
		}
		cold = append(cold, time.Since(start).Seconds())
		warm = append(warm, pr.median(func() error { _, err := svc.Plan(ctx, req); return err }))
		a := rep.Answers[strconv.Itoa(q)][0]
		data := []byte(a.Body)
		verify = append(verify, pr.median(func() error {
			_, err := strategy.VerifyArtifactBytes(a.Fingerprint, data)
			return err
		}))
		encode = append(encode, pr.median(func() error { _, err := strategy.EncodeArtifact(p.art); return err }))
	}
	if pr.err != nil {
		return nil, pr.err
	}
	set := func(name string, xs []float64) {
		m[name] = metric{Value: mean(xs), Unit: "s", n: len(xs)}
	}
	set("fleet.direct_s", direct)
	set("fleet.floor_s", floors)
	set("service.fingerprint_s", fingerprint)
	set("models.build_s", build)
	set("service.warm_plan_s", warm)
	set("service.cold_plan_s", cold)
	set("strategy.validate_s", verify)
	set("strategy.encode_s", encode)
	op := mean(routed)
	m["fleet.hop_s"] = metric{Value: op - mean(direct), Unit: "s", n: len(routed)}

	// A warm routed request is two loopback round trips (client→router,
	// router→shard), the router's fingerprint and body verification, and
	// the shard's warm Plan; models.build_s is inside the fingerprint.
	m["trace.op_s"] = metric{Value: op, Unit: "s", n: len(routed)}
	m["trace.untraced_op_s"] = metric{Value: untracedP50, Unit: "s", n: n}
	m["trace.overhead_s"] = metric{Value: op - untracedP50, Unit: "s", n: len(routed)}
	rest := op - 2*m["fleet.floor_s"].Value - m["service.fingerprint_s"].Value -
		m["strategy.validate_s"].Value - m["service.warm_plan_s"].Value
	m["trace.unattributed_s"] = metric{Value: rest, Unit: "s", n: len(routed)}
	return m, nil
}

// floorProbe serves a no-op handler on loopback and returns a function
// timing one round trip to it.
func floorProbe() (func(*http.Client) error, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
	})}
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()
	url := "http://" + ln.Addr().String() + "/"
	probe := func(c *http.Client) error {
		resp, err := c.Post(url, "application/json", strings.NewReader("{}"))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	}
	stop := func() { srv.Close(); <-done }
	return probe, stop, nil
}

// post sends one plan request and returns the answering backend.
func post(c *http.Client, base, body string) (string, error) {
	resp, err := c.Post(base+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("POST %s/v1/plan: status %d", base, resp.StatusCode)
	}
	return resp.Header.Get(fleet.HeaderBackend), nil
}

// prober times repeated calls and keeps the first error.
type prober struct{ err error }

// median calls fn probeRepeats times and returns the median seconds.
func (p *prober) median(fn func() error) float64 {
	xs := make([]float64, probeRepeats)
	for i := range xs {
		start := time.Now()
		if err := fn(); err != nil && p.err == nil {
			p.err = err
		}
		xs[i] = time.Since(start).Seconds()
	}
	return median(xs)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
