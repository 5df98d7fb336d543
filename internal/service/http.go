package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"graphpipe/internal/memosnap"
	"graphpipe/internal/obs"
)

// HTTP headers the service stamps on plan responses, so clients and smoke
// tests can tell a warm hit from a cold plan without parsing stats.
const (
	// HeaderFingerprint carries the plan's content fingerprint.
	HeaderFingerprint = "X-Graphpipe-Fingerprint"
	// HeaderCache carries the PlanResult source: "miss", "shared",
	// "hit-memory", or "hit-disk".
	HeaderCache = "X-Graphpipe-Cache"
	// HeaderBudget carries a request's remaining end-to-end time budget
	// in integer milliseconds. Every hop — router to shard, shard to
	// peer, memo offer — re-stamps the remainder, so the whole chain
	// shares one deadline instead of stacking independent timeouts. A
	// request whose budget expires gets 504 "deadline_exceeded"; one
	// whose budget arrives spent is rejected without work.
	HeaderBudget = "X-Graphpipe-Budget-Ms"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/plan              plan (or fetch) a strategy artifact
//	POST /v1/eval              evaluate a plan on a registered backend
//	GET  /v1/artifacts/{fp}    fetch a cached artifact by fingerprint
//	POST /v1/memos             accept a peer's DP memo snapshot offer
//	GET  /v1/stats             counters, gauges, latency histograms
//	GET  /metrics              the same state, Prometheus text format
//
// Responses are JSON. Errors are structured —
// {"error": <machine code>, "detail": <human text>} — with ErrBadRequest
// as 400, ErrUnknownArtifact as 404, ErrOverloaded as 429 (clients should
// back off for the Retry-After header's duration and retry), and anything
// else as 500.
//
// Every request runs under the obs trace middleware: the incoming
// X-Graphpipe-Trace ID (or a freshly minted one) is echoed on the
// response, spans cover each serving phase, `?trace=1` wraps the body
// in a span-tree envelope, and Config.TraceLog receives one JSON line
// per request.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("POST /v1/eval", s.handleEval)
	mux.HandleFunc("GET /v1/artifacts/{fp}", s.handleArtifact)
	mux.HandleFunc("POST /v1/memos", s.handleMemoOffer)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return obs.Middleware(mux, obs.HTTPOptions{
		Tracer:     s.tracer,
		Log:        s.traceLog,
		Route:      serviceRoute,
		SpanPrefix: "service.",
		Observe:    s.stats.observeRequest,
	})
}

// serviceRoute names a request for span/metric labels — a closed set,
// so route labels stay bounded no matter what paths clients probe.
func serviceRoute(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/plan":
		return "plan"
	case r.URL.Path == "/v1/eval":
		return "eval"
	case strings.HasPrefix(r.URL.Path, "/v1/artifacts/"):
		return "artifact"
	case r.URL.Path == "/v1/memos":
		return "memos"
	case r.URL.Path == "/v1/stats":
		return "stats"
	case r.URL.Path == "/metrics":
		return "metrics"
	default:
		return "other"
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.stats.reg.WriteText(w)
}

func (s *Service) handlePlan(w http.ResponseWriter, r *http.Request) {
	r, cancel, err := withBudget(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer cancel()
	var req Request
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.Plan(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderFingerprint, res.Fingerprint)
	w.Header().Set(HeaderCache, res.Source)
	w.Write(res.Data)
}

func (s *Service) handleEval(w http.ResponseWriter, r *http.Request) {
	r, cancel, err := withBudget(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer cancel()
	var req EvalRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.Eval(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set(HeaderFingerprint, res.Fingerprint)
	w.Header().Set(HeaderCache, res.PlanSource)
	writeJSON(w, res)
}

func (s *Service) handleArtifact(w http.ResponseWriter, r *http.Request) {
	r, cancel, err := withBudget(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer cancel()
	// A fellow daemon's fill request stops at the local tiers; only
	// client-originated lookups may consult peers in turn.
	var res *PlanResult
	if r.Header.Get(HeaderPeerFill) != "" {
		res, err = s.ArtifactLocal(r.Context(), r.PathValue("fp"))
	} else {
		res, err = s.Artifact(r.Context(), r.PathValue("fp"))
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderFingerprint, res.Fingerprint)
	w.Header().Set(HeaderCache, res.Source)
	w.Write(res.Data)
}

// withBudget applies a request's HeaderBudget (integer milliseconds of
// remaining end-to-end time) to its context. A malformed header is a
// 400; a budget that arrived spent is context.DeadlineExceeded before
// any work happens.
func withBudget(r *http.Request) (*http.Request, context.CancelFunc, error) {
	h := r.Header.Get(HeaderBudget)
	if h == "" {
		return r, func() {}, nil
	}
	ms, err := strconv.Atoi(h)
	if err != nil {
		return r, func() {}, fmt.Errorf("%w: %s: %q is not integer milliseconds", ErrBadRequest, HeaderBudget, h)
	}
	if ms <= 0 {
		return r, func() {}, fmt.Errorf("budget arrived spent: %w", context.DeadlineExceeded)
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
	return r.WithContext(ctx), cancel, nil
}

// handleMemoOffer accepts a DP memo snapshot pushed by a fleet peer
// (POST /v1/memos, raw GPMEMO bytes) and installs it into the local
// snapshot store, merging with whatever is already there. Offers are
// hints: a daemon with warm-starting disabled refuses them as 400s.
func (s *Service) handleMemoOffer(w http.ResponseWriter, r *http.Request) {
	if s.memos == nil {
		writeError(w, fmt.Errorf("%w: memo warm-starting is disabled on this daemon", ErrBadRequest))
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxMemoOfferBytes+1))
	if err != nil {
		writeError(w, fmt.Errorf("%w: body: %v", ErrBadRequest, err))
		return
	}
	if len(data) > maxMemoOfferBytes {
		writeError(w, fmt.Errorf("%w: memo snapshot exceeds %d bytes", ErrBadRequest, maxMemoOfferBytes))
		return
	}
	snap, err := memosnap.Decode(data)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	s.memos.Install(snap)
	s.stats.memoOffersReceived.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// MaxBodyBytes bounds plan and eval request bodies, on the daemon and at
// the fleet router. Planning requests are a few hundred bytes of JSON; a
// larger body is a client error, not traffic.
const MaxBodyBytes = 1 << 20

// decodeBody parses a JSON request body strictly — unknown fields are
// 400s, because a typoed option name silently planning with defaults (and
// caching the wrong answer under the caller's intent) is the worst
// failure mode a cache can have. A body over MaxBodyBytes is a 400 too.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, fmt.Errorf("%w: body: %v", ErrBadRequest, err))
		return false
	}
	return true
}

// apiError is the wire form of a failed request.
type apiError struct {
	// Error is the machine-readable code: "bad_request", "not_found",
	// "overloaded", "deadline_exceeded", or "internal".
	Error string `json:"error"`
	// Detail is the human-readable cause.
	Detail string `json:"detail"`
}

// writeError is writeError plus the service's own bookkeeping: budget
// expiries are counted so /v1/stats shows how often deadlines bite.
func (s *Service) writeError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.stats.deadlineRejections.Add(1)
	}
	writeError(w, err)
}

func writeError(w http.ResponseWriter, err error) {
	code, status := "internal", http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		code, status = "deadline_exceeded", http.StatusGatewayTimeout
	case errors.Is(err, ErrBadRequest):
		code, status = "bad_request", http.StatusBadRequest
	case errors.Is(err, ErrUnknownArtifact):
		code, status = "not_found", http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		code, status = "overloaded", http.StatusTooManyRequests
		// A queue-full rejection knows how deep the backlog is; tell the
		// client (and the fleet router) when a retry is worth attempting.
		var oe *OverloadError
		if errors.As(err, &oe) && oe.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(oe.RetryAfter.Seconds())))
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: code, Detail: err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
