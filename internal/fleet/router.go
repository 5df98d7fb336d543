package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphpipe/internal/faultinject"
	"graphpipe/internal/obs"
	"graphpipe/internal/service"
	"graphpipe/internal/strategy"
)

// HeaderBackend names the shard that answered a routed request, so
// clients and smoke tests can see placement without consulting the ring.
const HeaderBackend = "X-Graphpipe-Backend"

// maxRelayBytes bounds buffered backend response bodies. The router
// buffers (instead of streaming) so it can verify artifact bytes before
// a client sees them and retry a different replica on a torn transfer.
const maxRelayBytes = 64 << 20

// RouterConfig sizes a Router. Backends is required; everything else has
// serviceable defaults.
type RouterConfig struct {
	// Backends are the graphpiped base URLs the ring shards over.
	Backends []string
	// Replicas is the ring's virtual-node count per backend
	// (0: DefaultReplicas). Must match the daemons' own rings.
	Replicas int
	// LoadFactor is the bounded-load factor c: a backend already
	// carrying more than c times the fleet's mean in-flight routed load
	// is passed over for the next ring replica. <= 0 disables the bound
	// (strict ownership); default 1.25.
	LoadFactor float64
	// RetryShed is how many times a 429 from a backend is retried on
	// that same backend, honoring its Retry-After header, before the
	// 429 propagates to the client (default 1; negative disables).
	RetryShed int
	// MaxRetryAfter caps how long one shed retry will wait, whatever
	// the backend's Retry-After says (default 2s). It also caps the
	// deterministic exponential backoff used when a 429 carries no
	// Retry-After at all.
	MaxRetryAfter time.Duration
	// HealthInterval is the active health-check period (GET /metrics
	// per backend; default 2s, negative disables the background loop —
	// transport failures still mark backends down passively). Probe
	// rounds are jittered into [0.75, 1.25)·HealthInterval (see
	// probeDelays and JitterSeed).
	HealthInterval time.Duration
	// JitterSeed seeds the health-probe jitter stream; 0 derives a seed
	// from the process ID, so co-started routers decorrelate without
	// configuration.
	JitterSeed int64
	// Breaker sizes the per-backend circuit breakers. The zero value's
	// defaults (5 consecutive failures, 5s open) suit a fleet of local
	// shards; see BreakerConfig.
	Breaker BreakerConfig
	// DefaultBudget is the end-to-end deadline stamped on routed
	// requests that do not carry their own HeaderBudget (0: none). The
	// remaining budget is forwarded to shards on every hop, so peer
	// consults and planner waits are cut off when the client's window
	// closes, not after.
	DefaultBudget time.Duration
	// VerifyArtifacts re-verifies every 200 plan/artifact body against
	// its fingerprint before relaying it: a corrupt or truncated answer
	// becomes a breaker-counted failover to the next replica (whose
	// deterministic re-plan is byte-identical), never a wrong byte
	// served to a client.
	VerifyArtifacts bool
	// HedgeDelay staggers a second artifact read at the next replica
	// when the first has not answered within the delay; first verified
	// success wins (0 disables hedging). Applies to GET /v1/artifacts
	// only — reads are idempotent, plans are not free.
	HedgeDelay time.Duration
	// Faults wraps the router's backend client with this injected-fault
	// set (nil: no faults). Probes and stats fetches cross the same
	// sick wire as routed traffic.
	Faults *faultinject.Set
	// Client issues backend requests; nil uses a 30s-timeout client.
	Client *http.Client
	// Instance names this router in trace/span IDs and span logs
	// (default "graphpipe-lb").
	Instance string
	// TraceLog, when non-nil, receives one JSON line per request trace
	// (the -trace-log flag); nil disables span logging.
	TraceLog io.Writer
}

// Router is the fleet's front door: an http.Handler that consistent-
// hashes each request's canonical fingerprint to its owning backend.
// Create with NewRouter, release with Close.
type Router struct {
	cfg      RouterConfig
	ring     *Ring
	client   *http.Client
	sleep    func(time.Duration) // test seam for 429 backoff
	breakers map[string]*Breaker // per backend, immutable map

	mu       sync.Mutex
	down     map[string]bool
	inflight map[string]*atomic.Int64
	total    atomic.Int64

	// Forwarding counters, registered on reg; /v1/stats reads them
	// through routerView.
	routed, failovers, retried429, badRequests, noBackend *obs.Counter
	breakerRejections, deadlineRejections, corruptBodies  *obs.Counter
	hedged, hedgeWins                                     *obs.Counter

	reg      *obs.Registry
	tracer   *obs.Tracer
	traceLog *obs.TraceLog

	stop chan struct{}
	done sync.WaitGroup
}

// NewRouter validates the config, builds the ring, and starts the
// health-check loop.
func NewRouter(cfg RouterConfig) (*Router, error) {
	ring, err := NewRing(cfg.Backends, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	if cfg.LoadFactor == 0 {
		cfg.LoadFactor = 1.25
	}
	if cfg.RetryShed == 0 {
		cfg.RetryShed = 1
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 2 * time.Second
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = int64(os.Getpid())
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Faults != nil {
		c := *cfg.Client
		c.Transport = cfg.Faults.Transport("router", c.Transport)
		cfg.Client = &c
	}
	if cfg.Instance == "" {
		cfg.Instance = "graphpipe-lb"
	}
	r := &Router{
		cfg:      cfg,
		ring:     ring,
		client:   cfg.Client,
		sleep:    time.Sleep,
		breakers: make(map[string]*Breaker, len(cfg.Backends)),
		down:     make(map[string]bool),
		inflight: make(map[string]*atomic.Int64, len(cfg.Backends)),
		reg:      obs.NewRegistry(),
		tracer:   obs.NewTracer(cfg.Instance),
		traceLog: obs.NewTraceLog(cfg.TraceLog),
		stop:     make(chan struct{}),
	}
	for _, b := range cfg.Backends {
		r.inflight[b] = &atomic.Int64{}
		r.breakers[b] = NewBreaker(cfg.Breaker)
	}
	r.registerMetrics()
	if cfg.HealthInterval > 0 {
		r.done.Add(1)
		go r.healthLoop()
	}
	return r, nil
}

// registerMetrics registers the router's forwarding counters plus
// per-backend breaker and load state on its registry, the store both
// GET /metrics and /v1/stats read.
func (r *Router) registerMetrics() {
	c := func(name, help string) *obs.Counter { return r.reg.Counter(name, help, nil) }
	r.routed = c("graphpipe_router_routed_total", "Requests accepted for forwarding.")
	r.failovers = c("graphpipe_router_failovers_total", "Attempts moved to the next ring replica.")
	r.retried429 = c("graphpipe_router_retried_429_total", "Shed responses retried on the same backend.")
	r.badRequests = c("graphpipe_router_bad_requests_total", "Requests rejected at the router.")
	r.noBackend = c("graphpipe_router_no_backend_total", "Requests for which every replica failed.")
	r.breakerRejections = c("graphpipe_router_breaker_rejections_total", "Attempts refused by an open circuit breaker.")
	r.deadlineRejections = c("graphpipe_router_deadline_rejections_total", "Requests cut off by their time budget at the router.")
	r.corruptBodies = c("graphpipe_router_corrupt_bodies_total", "Backend bodies refused after verification or a torn read.")
	r.hedged = c("graphpipe_router_hedged_total", "Artifact reads that launched a hedge request.")
	r.hedgeWins = c("graphpipe_router_hedge_wins_total", "Hedge requests that answered first.")
	r.reg.GaugeFunc("graphpipe_router_in_flight", "Proxied requests currently in flight.", nil,
		func() float64 { return float64(r.total.Load()) })
	r.reg.CounterSetFunc("graphpipe_router_breaker_opens_total", "Breaker trips by backend.", "backend",
		func() map[string]uint64 {
			out := make(map[string]uint64, len(r.breakers))
			for b, br := range r.breakers {
				out[b] = br.Opens()
			}
			return out
		})
	r.reg.GaugeFunc("graphpipe_router_unhealthy", "Backends currently marked down.", nil,
		func() float64 { return float64(len(r.unhealthy())) })
	if r.cfg.Faults != nil {
		r.reg.CounterSetFunc("graphpipe_faults_injected_total", "Injected faults by site/kind.", "site",
			r.cfg.Faults.Tallies)
	}
}

// observeRequest records one routed request's latency by route on the
// shared graphpipe_request_seconds family.
func (r *Router) observeRequest(route string, seconds float64) {
	r.reg.Histogram("graphpipe_request_seconds",
		"HTTP request latency by route.", obs.Labels{"route": route}, nil).Observe(seconds)
}

// Close stops the health-check loop. In-flight proxied requests finish
// on their own.
func (r *Router) Close() {
	close(r.stop)
	r.done.Wait()
}

// Handler returns the router's HTTP API — the same surface as one
// graphpiped, plus fleet-wide aggregation on /v1/stats:
//
//	POST /v1/plan              routed by canonical request fingerprint
//	POST /v1/eval              routed by artifact or request fingerprint
//	GET  /v1/artifacts/{fp}    routed by fingerprint
//	GET  /v1/stats             fleet-aggregated counters + router stats
//	GET  /metrics              router counters, Prometheus text format
//
// Every request runs under the obs trace middleware: the router is the
// fleet's trace root — it mints (or adopts) the X-Graphpipe-Trace ID,
// propagates it to the shard it picks, and on `?trace=1` wraps the
// shard's own span envelope in its own, so clients see one connected
// tree spanning both processes.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", r.handlePlan)
	mux.HandleFunc("POST /v1/eval", r.handleEval)
	mux.HandleFunc("GET /v1/artifacts/{fp}", r.handleArtifact)
	mux.HandleFunc("GET /v1/stats", r.handleStats)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	return obs.Middleware(mux, obs.HTTPOptions{
		Tracer:     r.tracer,
		Log:        r.traceLog,
		Route:      routerRoute,
		SpanPrefix: "router.",
		Observe:    r.observeRequest,
	})
}

// routerRoute names a request for span/metric labels — a closed set, so
// labels stay bounded no matter what paths clients probe.
func routerRoute(req *http.Request) string {
	switch {
	case req.URL.Path == "/v1/plan":
		return "plan"
	case req.URL.Path == "/v1/eval":
		return "eval"
	case strings.HasPrefix(req.URL.Path, "/v1/artifacts/"):
		return "artifact"
	case req.URL.Path == "/v1/stats":
		return "stats"
	case req.URL.Path == "/metrics":
		return "metrics"
	default:
		return "other"
	}
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.reg.WriteText(w)
}

func (r *Router) handlePlan(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req, r)
	if !ok {
		return
	}
	var preq service.Request
	if !decodeStrict(w, r, body, &preq) {
		return
	}
	fp, err := preq.CanonicalFingerprint()
	if err != nil {
		r.badRequests.Add(1)
		writeRouterError(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	r.forward(w, req, fp, "/v1/plan", body)
}

func (r *Router) handleEval(w http.ResponseWriter, req *http.Request) {
	body, ok := readBody(w, req, r)
	if !ok {
		return
	}
	var ereq service.EvalRequest
	if !decodeStrict(w, r, body, &ereq) {
		return
	}
	// An eval-by-fingerprint routes to the artifact's shard; an eval of
	// an embedded planning request routes exactly where the equivalent
	// /v1/plan would, so the plan-if-cold path lands on the plan's owner.
	fp := ereq.Fingerprint
	if fp == "" {
		var err error
		if fp, err = ereq.Request.CanonicalFingerprint(); err != nil {
			r.badRequests.Add(1)
			writeRouterError(w, http.StatusBadRequest, "bad_request", err)
			return
		}
	}
	r.forward(w, req, fp, "/v1/eval", body)
}

func (r *Router) handleArtifact(w http.ResponseWriter, req *http.Request) {
	fp := req.PathValue("fp")
	path := "/v1/artifacts/" + fp
	if r.cfg.HedgeDelay > 0 {
		r.forwardHedged(w, req, fp, path)
		return
	}
	r.forward(w, req, fp, path, nil)
}

// outcomeKind classifies one backend attempt for the failover loop.
type outcomeKind int

const (
	outcomeNone        outcomeKind = iota // no attempt was made
	outcomeOK                             // relayable answer (2xx–4xx, incl. exhausted 429s)
	outcomeBreakerOpen                    // not admitted; nothing was sent
	outcomeDeadline                       // the request's own budget died mid-attempt
	outcomeTransport                      // connection-level failure: mark down, fail over
	outcomeServerErr                      // backend answered >= 500: fail over, relayable as last resort
	outcomeCorrupt                        // body failed verification or tore mid-read: fail over
)

// String names an outcome kind for span attributes and logs.
func (k outcomeKind) String() string {
	switch k {
	case outcomeOK:
		return "ok"
	case outcomeBreakerOpen:
		return "breaker-open"
	case outcomeDeadline:
		return "deadline"
	case outcomeTransport:
		return "transport"
	case outcomeServerErr:
		return "server-error"
	case outcomeCorrupt:
		return "corrupt"
	default:
		return "none"
	}
}

// outcome is one backend attempt's result: a classification plus, when
// the backend produced an HTTP answer, the buffered response.
type outcome struct {
	kind    outcomeKind
	backend string
	status  int
	header  http.Header
	data    []byte
	err     error
}

// forward proxies one request to the fleet: candidates are the key's
// ring owners, filtered by health and reordered by the bounded-load
// rule, each gated by its circuit breaker. A connection failure marks
// the backend down and fails over to the next replica; a 429 is retried
// on the same backend with bounded backoff before propagating; a
// corrupt or torn 200 becomes a failover, never a wrong byte served.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, key, path string, body []byte) {
	r.routed.Add(1)
	ctx, cancel, ok := r.budgetCtx(w, req)
	if !ok {
		return
	}
	defer cancel()
	verifyFP := r.verifyKey(path, key)
	if traced(req) {
		verifyFP = ""
	}
	var last outcome
	sawBreaker := false
	for _, backend := range r.candidates(key) {
		if ctx.Err() != nil {
			r.finishDeadline(w, key, ctx)
			return
		}
		o := r.tryBackend(ctx, req, backend, key, path, body, verifyFP)
		switch o.kind {
		case outcomeOK:
			r.relayOutcome(w, o)
			return
		case outcomeBreakerOpen:
			r.breakerRejections.Add(1)
			sawBreaker = true
		case outcomeDeadline:
			r.finishDeadline(w, key, ctx)
			return
		case outcomeTransport:
			r.markDown(o.backend)
			r.failovers.Add(1)
			last = o
		default: // outcomeServerErr, outcomeCorrupt
			r.failovers.Add(1)
			last = o
		}
	}
	r.finishExhausted(w, key, last, sawBreaker)
}

// forwardHedged is forward for artifact reads with hedging: if the
// first replica has not answered within HedgeDelay, a second request
// launches at the next candidate and the first verified success wins.
// Reads are idempotent and cheap for the losing replica, so the hedge
// trades one duplicate GET for tail latency whenever the owner is slow
// — degraded, faulted, or mid-GC.
func (r *Router) forwardHedged(w http.ResponseWriter, req *http.Request, fp, path string) {
	r.routed.Add(1)
	ctx, cancel, ok := r.budgetCtx(w, req)
	if !ok {
		return
	}
	defer cancel()
	verifyFP := r.verifyKey(path, fp)
	if traced(req) {
		verifyFP = ""
	}
	cands := r.candidates(fp)
	results := make(chan outcome, len(cands))
	next, pending := 0, 0
	launch := func() bool {
		if next >= len(cands) {
			return false
		}
		backend := cands[next]
		next++
		pending++
		go func() { results <- r.tryBackend(ctx, req, backend, fp, path, nil, verifyFP) }()
		return true
	}
	launch()
	hedgeTimer := time.NewTimer(r.cfg.HedgeDelay)
	defer hedgeTimer.Stop()
	hedgeArmed := true
	var last outcome
	sawBreaker := false
	for pending > 0 {
		select {
		case o := <-results:
			pending--
			switch o.kind {
			case outcomeOK:
				if len(cands) > 0 && o.backend != cands[0] {
					r.hedgeWins.Add(1)
				}
				r.relayOutcome(w, o)
				return
			case outcomeBreakerOpen:
				r.breakerRejections.Add(1)
				sawBreaker = true
				launch()
			case outcomeDeadline:
				if pending == 0 {
					r.finishDeadline(w, fp, ctx)
					return
				}
			case outcomeTransport:
				r.markDown(o.backend)
				r.failovers.Add(1)
				last = o
				launch()
			default:
				r.failovers.Add(1)
				last = o
				launch()
			}
		case <-hedgeTimer.C:
			if hedgeArmed {
				hedgeArmed = false
				if launch() {
					r.hedged.Add(1)
				}
			}
		}
	}
	r.finishExhausted(w, fp, last, sawBreaker)
}

// tryBackend runs one breaker-guarded attempt against one backend,
// including same-backend 429 retries, buffering the response body and
// verifying it when asked. Exactly one breaker verdict (Record or
// Cancel) is issued per admitted attempt. The attempt is a span; the
// shard's own trace parents under it via the propagated headers, so a
// routed request's cross-process tree hangs off its backend attempts.
func (r *Router) tryBackend(ctx context.Context, orig *http.Request, backend, key, path string, body []byte, verifyFP string) outcome {
	ctx, span := obs.StartSpan(ctx, "backend.attempt", "backend", backend)
	o := r.tryBackendOnce(ctx, orig, backend, key, path, body, verifyFP)
	span.SetAttr("outcome", o.kind.String())
	span.End()
	return o
}

func (r *Router) tryBackendOnce(ctx context.Context, orig *http.Request, backend, key, path string, body []byte, verifyFP string) outcome {
	br := r.breakers[backend]
	if !br.Allow() {
		return outcome{kind: outcomeBreakerOpen, backend: backend}
	}
	resp, err := r.send(ctx, orig, backend, path, body)
	for attempt := 0; err == nil && resp.StatusCode == http.StatusTooManyRequests && attempt < r.cfg.RetryShed; attempt++ {
		// The shard told us when a worker should free up; honoring that
		// (capped) beats hammering the next replica, which does not own
		// the fingerprint's cache entry. Absent a Retry-After, back off
		// exponentially with deterministic jitter instead of blindly.
		delay := r.shedDelay(resp, key, attempt)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); delay > rem {
				delay = rem
			}
		}
		r.retried429.Add(1)
		if delay > 0 {
			_, waitSpan := obs.StartSpan(ctx, "retry.wait", "backend", backend)
			r.sleep(delay)
			waitSpan.End()
		}
		if ctx.Err() != nil {
			br.Cancel()
			return outcome{kind: outcomeDeadline, backend: backend, err: ctx.Err()}
		}
		resp, err = r.send(ctx, orig, backend, path, body)
	}
	if err != nil {
		if ctx.Err() != nil {
			// Our budget (or client) died mid-flight; that proves nothing
			// about the backend, so no breaker verdict either way.
			br.Cancel()
			return outcome{kind: outcomeDeadline, backend: backend, err: ctx.Err()}
		}
		br.Record(false)
		return outcome{kind: outcomeTransport, backend: backend, err: err}
	}
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxRelayBytes))
	resp.Body.Close()
	o := outcome{backend: backend, status: resp.StatusCode, header: resp.Header, data: data}
	switch {
	case resp.StatusCode >= http.StatusInternalServerError && resp.StatusCode != http.StatusGatewayTimeout:
		// A 504 is excluded: it reports our own forwarded budget dying
		// inside the shard, which says nothing about the shard's health.
		br.Record(false)
		o.kind = outcomeServerErr
		o.err = fmt.Errorf("backend %s: status %d", backend, resp.StatusCode)
	case rerr != nil:
		// The body tore mid-read: a cut wire, not a clean answer.
		br.Record(false)
		r.corruptBodies.Add(1)
		o.kind = outcomeCorrupt
		o.err = fmt.Errorf("backend %s: body: %w", backend, rerr)
	case verifyFP != "" && resp.StatusCode == http.StatusOK:
		if _, verr := strategy.VerifyArtifactBytes(verifyFP, data); verr != nil {
			br.Record(false)
			r.corruptBodies.Add(1)
			o.kind = outcomeCorrupt
			o.err = fmt.Errorf("backend %s: %w", backend, verr)
			return o
		}
		br.Record(true)
		o.kind = outcomeOK
	default:
		br.Record(true)
		o.kind = outcomeOK
	}
	return o
}

// traced reports whether a client asked for a span-tree envelope. The
// query is forwarded to the shard, whose enveloped body no longer
// hashes to its artifact fingerprint — so traced responses skip router-
// side verification. Tracing is a debugging surface, not a serving one.
func traced(req *http.Request) bool {
	return req.URL.Query().Get("trace") == "1"
}

// verifyKey returns the fingerprint a path's 200 bodies must hash to,
// or "" when the response is not verifiable (evals are reports, not
// artifacts) or verification is disabled.
func (r *Router) verifyKey(path, key string) string {
	if !r.cfg.VerifyArtifacts {
		return ""
	}
	if path == "/v1/plan" || strings.HasPrefix(path, "/v1/artifacts/") {
		return key
	}
	return ""
}

// budgetCtx derives the forwarding context from the request's time
// budget: an explicit HeaderBudget wins, then DefaultBudget; with
// neither, the request context passes through. ok=false means the
// response was already written (malformed header, or a budget that
// arrived spent).
func (r *Router) budgetCtx(w http.ResponseWriter, req *http.Request) (context.Context, context.CancelFunc, bool) {
	budget := r.cfg.DefaultBudget
	if h := req.Header.Get(service.HeaderBudget); h != "" {
		ms, err := strconv.Atoi(h)
		if err != nil {
			r.badRequests.Add(1)
			writeRouterError(w, http.StatusBadRequest, "bad_request",
				fmt.Errorf("%s: %q is not integer milliseconds", service.HeaderBudget, h))
			return nil, nil, false
		}
		if ms <= 0 {
			r.deadlineRejections.Add(1)
			writeRouterError(w, http.StatusGatewayTimeout, "deadline_exceeded",
				fmt.Errorf("request budget arrived spent (%s: %d)", service.HeaderBudget, ms))
			return nil, nil, false
		}
		budget = time.Duration(ms) * time.Millisecond
	}
	if budget <= 0 {
		return req.Context(), func() {}, true
	}
	ctx, cancel := context.WithTimeout(req.Context(), budget)
	return ctx, cancel, true
}

// finishDeadline ends a forward whose context died mid-flight: an
// expired budget is a counted 504; a client that hung up gets nothing.
func (r *Router) finishDeadline(w http.ResponseWriter, key string, ctx context.Context) {
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return
	}
	r.deadlineRejections.Add(1)
	writeRouterError(w, http.StatusGatewayTimeout, "deadline_exceeded",
		fmt.Errorf("fleet: request budget exhausted for %s", key))
}

// finishExhausted writes the response for a forward that ran out of
// candidates: the last backend 5xx if one exists (the healthiest truth
// left is the backend's own error body), a 503 when only open breakers
// were met, a 502 otherwise.
func (r *Router) finishExhausted(w http.ResponseWriter, key string, last outcome, sawBreaker bool) {
	r.noBackend.Add(1)
	if last.kind == outcomeServerErr {
		r.relayOutcome(w, last)
		return
	}
	if last.kind == outcomeNone && sawBreaker {
		writeRouterError(w, http.StatusServiceUnavailable, "breaker_open",
			fmt.Errorf("fleet: every replica's breaker is open for %s", key))
		return
	}
	err := last.err
	if err == nil {
		err = errors.New("no backends configured for key")
	}
	writeRouterError(w, http.StatusBadGateway, "no_backend",
		fmt.Errorf("fleet: every replica failed for %s: %w", key, err))
}

// send issues one backend request, tracking per-backend in-flight load
// for the bounded-load rule, forwarding the remaining time budget so
// the shard bounds its own peer consults and planner waits to what the
// client will still accept, and propagating the trace so the shard's
// spans parent under this attempt. A client's ?trace=1 is forwarded
// too: the shard answers with its own span envelope, which the
// router's middleware wraps again on the way out.
func (r *Router) send(ctx context.Context, orig *http.Request, backend, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	url := backend + path
	if traced(orig) {
		url += "?trace=1"
	}
	req, err := http.NewRequestWithContext(ctx, orig.Method, url, rd)
	if err != nil {
		return nil, err
	}
	obs.Propagate(ctx, req)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(service.HeaderBudget, strconv.FormatInt(ms, 10))
	}
	counter := r.inflight[backend]
	counter.Add(1)
	r.total.Add(1)
	resp, err := r.client.Do(req)
	counter.Add(-1)
	r.total.Add(-1)
	return resp, err
}

// relayOutcome copies a buffered backend response to the client,
// stamping which shard answered.
func (r *Router) relayOutcome(w http.ResponseWriter, o outcome) {
	for _, h := range []string{"Content-Type", service.HeaderFingerprint, service.HeaderCache, "Retry-After"} {
		if v := o.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(HeaderBackend, o.backend)
	w.WriteHeader(o.status)
	w.Write(o.data)
}

// candidates orders the key's ring owners for one forwarding attempt:
// healthy backends under the bounded-load capacity first (in ring
// order), then loaded-but-healthy ones, then — only if every backend is
// marked down — the full owner list, because a wrong "down" verdict
// must degrade to a slow request, not a refused one.
func (r *Router) candidates(key string) []string {
	owners := r.ring.Owners(key)
	cap := r.loadCapacity()
	var within, over []string
	r.mu.Lock()
	for _, b := range owners {
		if r.down[b] {
			continue
		}
		if cap > 0 && r.inflight[b].Load() >= cap {
			over = append(over, b)
		} else {
			within = append(within, b)
		}
	}
	r.mu.Unlock()
	if len(within) == 0 && len(over) == 0 {
		return owners
	}
	return append(within, over...)
}

// loadCapacity is the bounded-load ceiling: ceil(c * (total+1) / n),
// the classic consistent-hashing-with-bounded-loads capacity. 0 means
// the bound is disabled.
func (r *Router) loadCapacity() int64 {
	if r.cfg.LoadFactor <= 0 {
		return 0
	}
	n := int64(len(r.cfg.Backends))
	mean := float64(r.total.Load()+1) / float64(n)
	cap := int64(r.cfg.LoadFactor * mean)
	if float64(cap) < r.cfg.LoadFactor*mean {
		cap++
	}
	if cap < 1 {
		cap = 1
	}
	return cap
}

// unhealthy lists the backends currently marked down, in config order.
func (r *Router) unhealthy() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, b := range r.cfg.Backends {
		if r.down[b] {
			out = append(out, b)
		}
	}
	return out
}

func (r *Router) markDown(backend string) {
	r.mu.Lock()
	r.down[backend] = true
	r.mu.Unlock()
}

// healthLoop actively probes every backend's /metrics, reviving
// backends that passive failures marked down and catching dead ones
// before traffic does. Probe rounds are spaced by jittered delays in
// [0.75, 1.25)·HealthInterval drawn from the router's seeded stream
// (the same sequence probeDelays reports): routers restarted together
// drift apart instead of synchronously hammering every shard each
// period.
func (r *Router) healthLoop() {
	defer r.done.Done()
	jitter := probeJitter(r.cfg.JitterSeed)
	timer := time.NewTimer(nextProbeDelay(&jitter, r.cfg.HealthInterval))
	defer timer.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-timer.C:
			for _, b := range r.cfg.Backends {
				_, err := r.scrape(context.Background(), b)
				r.mu.Lock()
				r.down[b] = err != nil
				r.mu.Unlock()
			}
			timer.Reset(nextProbeDelay(&jitter, r.cfg.HealthInterval))
		}
	}
}

// shedDelay is how long to wait before retrying a 429 on the same
// backend: the shard's Retry-After seconds when present (capped), else
// bounded exponential backoff with deterministic jitter keyed by the
// routed fingerprint.
func (r *Router) shedDelay(resp *http.Response, key string, attempt int) time.Duration {
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		d := time.Duration(secs) * time.Second
		if d > r.cfg.MaxRetryAfter {
			d = r.cfg.MaxRetryAfter
		}
		return d
	}
	return backoffDelay(250*time.Millisecond, r.cfg.MaxRetryAfter, key, attempt)
}

// readBody slurps a request body of at most service.MaxBodyBytes; a
// longer one is refused, not truncated into a different request.
func readBody(w http.ResponseWriter, req *http.Request, r *Router) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(req.Body, service.MaxBodyBytes+1))
	if err == nil && len(body) > service.MaxBodyBytes {
		err = fmt.Errorf("exceeds %d bytes", service.MaxBodyBytes)
	}
	if err != nil {
		r.badRequests.Add(1)
		writeRouterError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("body: %w", err))
		return nil, false
	}
	return body, true
}

// decodeStrict mirrors the daemons' strict JSON decoding, so malformed
// requests die at the router with the same 400 shape they would get
// from a shard.
func decodeStrict(w http.ResponseWriter, r *Router, body []byte, dst any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		r.badRequests.Add(1)
		writeRouterError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("body: %w", err))
		return false
	}
	return true
}

// writeRouterError matches the service's apiError wire shape.
func writeRouterError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error  string `json:"error"`
		Detail string `json:"detail"`
	}{code, err.Error()})
}
