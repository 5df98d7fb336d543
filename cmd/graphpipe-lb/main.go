// Command graphpipe-lb is the planning fleet's router: it consistent-
// hashes each request's canonical fingerprint across a set of graphpiped
// backends and forwards /v1/plan, /v1/eval, and /v1/artifacts/{fp} to
// the owning shard, so every distinct planning question has one home and
// the fleet's aggregate cache is (nearly) the sum of its shards.
//
//	graphpipe-lb -addr :7100 \
//	    -backends http://10.0.0.1:8787,http://10.0.0.2:8787,http://10.0.0.3:8787
//
// Routing is bounded-load consistent hashing: an overloaded shard spills
// its next requests to the following ring replica instead of queueing
// behind the hot spot. Backends that stop answering are marked down and
// skipped until a (jittered) health probe sees them again; each backend
// sits behind a circuit breaker that opens after repeated failures and
// re-closes via half-open trial traffic; 429s are retried on the same
// backend after honoring its Retry-After (or bounded deterministic
// backoff without one). Requests carry an end-to-end time budget
// (X-Graphpipe-Budget-Ms, or -default-budget) forwarded hop by hop, 200
// plan/artifact bodies are re-verified against their fingerprint before
// relaying (a corrupt answer fails over, never reaches a client), and
// artifact reads can hedge to a second replica (-hedge-delay). GET
// /v1/stats scrapes every shard's /metrics and returns each shard's
// stats, the series-by-series sum of those scrapes under "fleet", and
// the router's own forwarding counters, breaker states included.
//
// SIGINT/SIGTERM drain in-flight proxied requests before exiting, same
// as graphpiped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"graphpipe/internal/faultinject"
	"graphpipe/internal/fleet"
	"graphpipe/internal/obs"

	// Route keys come from service.Request canonicalization, which
	// validates planner names against the registry — the router must
	// know the same planners the daemons do.
	_ "graphpipe/internal/planner/all"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stderr, nil, sigs); err != nil {
		fmt.Fprintln(os.Stderr, "graphpipe-lb:", err)
		os.Exit(1)
	}
}

// run is the router body, factored like graphpiped's so a test can
// drive it end to end: serve, report the resolved address through
// ready, block for a signal, drain, exit.
func run(args []string, logw io.Writer, ready chan<- string, sigs <-chan os.Signal) error {
	fs := flag.NewFlagSet("graphpipe-lb", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr     = fs.String("addr", ":7100", "listen address (host:port; port 0 picks one)")
		backends = fs.String("backends", "", "comma-separated graphpiped base URLs (required)")
		replicas = fs.Int("ring-replicas", 0,
			"virtual nodes per backend on the hash ring (0: default 64; must match the daemons' -ring-replicas)")
		loadFactor = fs.Float64("load-factor", 1.25,
			"bounded-load factor c: spill past a backend above c times the mean in-flight load (<= 0 disables)")
		retryShed = fs.Int("retry-shed", 1,
			"retries of a 429 on the same backend, honoring its Retry-After (negative disables)")
		maxRetryAfter = fs.Duration("max-retry-after", 2*time.Second,
			"cap on how long one shed retry waits, whatever the backend asks for")
		healthInterval = fs.Duration("health-interval", 2*time.Second,
			"active health-check period, jittered ±25% per round (negative disables the probe loop)")
		probeJitterSeed = fs.Int64("probe-jitter-seed", 0,
			"seed for health-probe jitter (0: derived from the PID so co-started routers decorrelate)")
		breakerThreshold = fs.Int("breaker-threshold", 0,
			"consecutive failures that open a backend's circuit breaker (0: default 5)")
		breakerOpenFor = fs.Duration("breaker-open-for", 0,
			"how long an open breaker rejects before half-open trial traffic (0: default 5s)")
		defaultBudget = fs.Duration("default-budget", 0,
			"end-to-end deadline stamped on requests without X-Graphpipe-Budget-Ms (0: none)")
		verifyArtifacts = fs.Bool("verify-artifacts", true,
			"re-verify 200 plan/artifact bodies against their fingerprint before relaying; "+
				"corrupt answers fail over to the next replica")
		hedgeDelay = fs.Duration("hedge-delay", 0,
			"launch a second artifact read at the next replica after this delay (0 disables hedging)")
		faultSpec = fs.String("fault-spec", os.Getenv("GRAPHPIPE_FAULT_SPEC"),
			"deterministic fault injection spec for the backend client, e.g. 'seed=42;http.drop=0.1' "+
				"(default $GRAPHPIPE_FAULT_SPEC; empty disables; see internal/faultinject)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second,
			"how long shutdown waits for in-flight requests before aborting them")
		instance = fs.String("instance", "",
			"process name stamped into trace/span IDs and span logs (default \"graphpipe-lb\")")
		traceLog = fs.String("trace-log", "",
			"append one JSON line per request trace (the full span tree) to this file; empty disables")
		debugAddr = fs.String("debug-addr", "",
			"serve net/http/pprof on this separate listener (e.g. localhost:6061); empty disables")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, strings.TrimRight(b, "/"))
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("-backends is required (comma-separated graphpiped URLs)")
	}

	faults, err := faultinject.Parse(*faultSpec)
	if err != nil {
		return err
	}
	if faults != nil {
		fmt.Fprintf(logw, "graphpipe-lb: fault injection active: %s\n", faults)
	}

	rcfg := fleet.RouterConfig{
		Backends:       urls,
		Replicas:       *replicas,
		LoadFactor:     *loadFactor,
		RetryShed:      *retryShed,
		MaxRetryAfter:  *maxRetryAfter,
		HealthInterval: *healthInterval,
		JitterSeed:     *probeJitterSeed,
		Breaker: fleet.BreakerConfig{
			FailureThreshold: *breakerThreshold,
			OpenFor:          *breakerOpenFor,
		},
		DefaultBudget:   *defaultBudget,
		VerifyArtifacts: *verifyArtifacts,
		HedgeDelay:      *hedgeDelay,
		Faults:          faults,
		Instance:        *instance,
	}
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("-trace-log: %w", err)
		}
		defer f.Close()
		rcfg.TraceLog = f
	}
	router, err := fleet.NewRouter(rcfg)
	if err != nil {
		return err
	}
	dbg, err := obs.StartDebugServer(*debugAddr)
	if err != nil {
		router.Close()
		return fmt.Errorf("-debug-addr: %w", err)
	}
	defer dbg.Close()
	if dbg != nil {
		fmt.Fprintf(logw, "graphpipe-lb: pprof on %s\n", dbg.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		router.Close()
		return err
	}
	srv := &http.Server{Handler: router.Handler()}
	fmt.Fprintf(logw, "graphpipe-lb: listening on %s, %d backends\n", ln.Addr(), len(urls))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-sigs:
		fmt.Fprintf(logw, "graphpipe-lb: %v, draining\n", sig)
	case err := <-serveErr:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	router.Close()
	fmt.Fprintln(logw, "graphpipe-lb: drained, bye")
	return nil
}
