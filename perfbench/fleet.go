package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"graphpipe/internal/cluster"
	"graphpipe/internal/eval"
	"graphpipe/internal/graph"
	"graphpipe/internal/models"
	"graphpipe/internal/obs"
	"graphpipe/internal/strategy"
)

// The fleet-zipf workload: three graphpiped shards with peer fill behind
// graphpipe-lb on loopback, each shard's memory tier smaller than the
// questions it owns, warmed with every question once and then driven by
// the loaddriver's two closed-loop clients.
const (
	fleetShards     = 3
	fleetMemEntries = 48 // per shard, well under the ~170 of the loaddriver's 512 questions each owns
	fleetHot        = 16 // most popular questions: plan quality and probes
	fleetSetups     = 3  // slices of a run, each on a freshly booted and warmed fleet; setup_s is their median
	fleetLead       = 2  // seconds of each slice's replay sent before measuring
)

// fleetProcs is one running set of daemons.
type fleetProcs struct {
	procs  []*exec.Cmd
	shards []string // base URLs
	router string
}

// fleetAddr is daemon i's listen address: shards first, the router last.
// The addresses are fixed, on distinct loopback IPs, because the router's
// hash ring places backends by their URLs: a fixed ring gives every run
// the same question-to-shard ownership, so runs differ only by their seed.
func fleetAddr(i int) string { return fmt.Sprintf("127.0.1.%d:17870", i+1) }

// startFleet boots the shards and the router with fresh cache
// directories under dir and waits until every daemon answers.
func startFleet(ctx context.Context, binDir, dir string) (*fleetProcs, error) {
	// A daemon left over from a killed run would answer in place of the
	// new one; refuse to start unless every address is free.
	for i := 0; i <= fleetShards; i++ {
		l, err := net.Listen("tcp", fleetAddr(i))
		if err != nil {
			return nil, fmt.Errorf("fleet address %s is busy: %w", fleetAddr(i), err)
		}
		l.Close()
	}
	f := &fleetProcs{}
	for i := 0; i < fleetShards; i++ {
		f.shards = append(f.shards, "http://"+fleetAddr(i))
	}
	f.router = "http://" + fleetAddr(fleetShards)
	peers := strings.Join(f.shards, ",")
	logf, err := os.Create(filepath.Join(dir, "daemons.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	start := func(name string, args ...string) error {
		cmd := exec.Command(filepath.Join(binDir, name), args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// A killed benchmark must not leave daemons behind.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return err
		}
		f.procs = append(f.procs, cmd)
		return nil
	}
	for i, url := range f.shards {
		err := start("graphpiped",
			"-addr", strings.TrimPrefix(url, "http://"),
			"-cache-dir", filepath.Join(dir, fmt.Sprintf("cache%d", i)),
			"-mem-entries", strconv.Itoa(fleetMemEntries),
			"-self", url, "-peers", peers,
			"-instance", fmt.Sprintf("shard%d", i))
		if err != nil {
			f.stop()
			return nil, err
		}
	}
	if err := start("graphpipe-lb", "-addr", strings.TrimPrefix(f.router, "http://"), "-backends", peers); err != nil {
		f.stop()
		return nil, err
	}
	for _, url := range append(append([]string(nil), f.shards...), f.router) {
		if err := waitReady(ctx, url); err != nil {
			f.stop()
			return nil, fmt.Errorf("%w (see %s)", err, logf.Name())
		}
	}
	return f, nil
}

func waitReady(ctx context.Context, url string) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := http.Get(url + "/metrics")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%s did not come up", url)
}

// stop sends SIGTERM to every daemon, waits for each to exit, and kills
// any that outlive the grace period.
func (f *fleetProcs) stop() {
	for _, p := range f.procs {
		p.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range f.procs {
		done := make(chan struct{})
		go func() { p.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			p.Process.Kill()
			<-done
		}
	}
	f.procs = nil
}

// scrape sums every series of the listed daemons' /metrics.
func scrape(urls ...string) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, u := range urls {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		m, err := obs.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// loadReport mirrors the loaddriver's output.
type loadReport struct {
	Questions []string     `json:"questions"`
	Records   []loadRecord `json:"records"`
	WindowS   float64      `json:"window_s"`
	Answers   map[string][]struct {
		Fingerprint string `json:"fingerprint"`
		Body        string `json:"body"`
	} `json:"answers"`
}

// loadRecord is one request of a loadReport.
type loadRecord struct {
	Question int    `json:"q"`
	LatNanos int64  `json:"lat_ns"`
	Status   int    `json:"status"`
	Source   string `json:"source"`
	Bytes    int    `json:"bytes"`
	Lead     bool   `json:"lead"`
}

// runLoad runs the loaddriver against target: the timed replay, or with
// warm set the one-at-a-time pass over every question.
func runLoad(ctx context.Context, e env, target string, warm bool) (*loadReport, error) {
	out := filepath.Join(e.workDir, "load.json")
	cmd := exec.CommandContext(ctx, filepath.Join(e.binDir, "loaddriver"),
		"-target", target,
		"-seed", strconv.FormatInt(e.seed, 10),
		"-lead", strconv.Itoa(fleetLead),
		"-seconds", strconv.FormatFloat(e.seconds.Seconds(), 'f', -1, 64),
		"-warm="+strconv.FormatBool(warm),
		"-out", out)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("loaddriver: %w", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var rep loadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("loaddriver report: %w", err)
	}
	return &rep, nil
}

// servedPlan is one distinct 200 body, decoded and rebuilt for checking.
type servedPlan struct {
	art  *strategy.Artifact
	g    *graph.Graph
	topo *cluster.Topology
}

// checkBodies verifies every answer against its fingerprint and checks
// its strategy against C1–C4. Each question must get one body for the
// whole run: the fleet plans a question once and serves those bytes from
// every tier and shard. It returns each question's answer decoded, or a
// description of the first failure.
func checkBodies(rep *loadReport) (map[int]servedPlan, string, error) {
	plans := make(map[int]servedPlan, len(rep.Answers))
	for key, answers := range rep.Answers {
		q, err := strconv.Atoi(key)
		if err != nil {
			return nil, "", err
		}
		if len(answers) != 1 {
			return nil, fmt.Sprintf("question %d got %d different bodies", q, len(answers)), nil
		}
		a := answers[0]
		art, err := strategy.VerifyArtifactBytes(a.Fingerprint, []byte(a.Body))
		if err != nil {
			return nil, fmt.Sprintf("question %d: body does not verify against %q: %v", q, a.Fingerprint, err), nil
		}
		g, _, err := models.Build(art.Model, art.Branches, art.Devices)
		if err != nil {
			return nil, "", err
		}
		topo, err := models.Topology(art.Topology, art.Devices)
		if err != nil {
			return nil, "", err
		}
		if err := art.Strategy.Validate(g, topo); err != nil {
			return nil, fmt.Sprintf("question %d (%s@%d) violates C1–C4: %v", q, art.Model, art.Devices, err), nil
		}
		plans[q] = servedPlan{art: art, g: g, topo: topo}
	}
	return plans, "", nil
}

// mergeAnswers adds the warm pass's answers to the replay's, keeping each
// distinct body once, so checkBodies sees every body the run was sent.
func mergeAnswers(rep, warm *loadReport) {
	for key, was := range warm.Answers {
		for _, a := range was {
			if !slices.Contains(rep.Answers[key], a) {
				rep.Answers[key] = append(rep.Answers[key], a)
			}
		}
	}
}

func simThroughput(g *graph.Graph, topo *cluster.Topology, st *strategy.Strategy) (float64, error) {
	ev, err := eval.Get("sim")
	if err != nil {
		return 0, err
	}
	rep, err := ev.Evaluate(g, topo, st, eval.Options{})
	if err != nil {
		return 0, err
	}
	return rep.Throughput, nil
}

// runFleetZipf runs fleetSetups slices, each on a fresh fleet: boot it,
// warm it with every question once (setup_s is the median of boot plus
// warm-up), replay a share of the loaddriver's Zipf stream through the
// router, and check every answer that fleet gave. Latencies and counts are
// pooled over the slices, so one run samples three process placements
// and a longer stretch of the host's time than one replay would.
//
// The warm-up is what makes one body per question a promise the fleet can
// keep under two clients: with both clients on one shard, the router's
// bounded-load rule spills the second request to a replica, and while the
// owner has not yet planned that question the replica plans it too, so a
// cold replay would get two bodies for some questions.
func runFleetZipf(ctx context.Context, e env) (*result, error) {
	if e.binDir == "" {
		return nil, errors.New("fleet-zipf needs -bin with the built daemons")
	}
	var (
		setups   []float64
		lat      []time.Duration
		window   float64
		records  []loadRecord
		delta    = map[string]float64{}
		failed   int
		statuses = map[int]int{}
		last     *loadReport
		plans    map[int]servedPlan
		f        *fleetProcs
	)
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	for i := 0; i < fleetSetups; i++ {
		if f != nil {
			f.stop()
		}
		dir := filepath.Join(e.workDir, fmt.Sprintf("fleet%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if f, err = startFleet(ctx, e.binDir, dir); err != nil {
			return nil, err
		}
		warm, err := runLoad(ctx, e, f.router, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		for _, r := range warm.Records {
			if r.Status != http.StatusOK {
				return checkFailed(len(records)+1, failed+1, "fleet %d: warm-up question %d: status %d", i, r.Question, r.Status), nil
			}
		}

		before, err := scrape(append(f.shards, f.router)...)
		if err != nil {
			return nil, err
		}
		slice := e
		slice.seed = e.seed*fleetSetups + int64(i)
		slice.seconds = e.seconds / fleetSetups
		rep, err := runLoad(ctx, slice, f.router, false)
		if err != nil {
			return nil, err
		}
		after, err := scrape(append(f.shards, f.router)...)
		if err != nil {
			return nil, err
		}
		for k, v := range after {
			delta[k] += v - before[k]
		}

		// A request fails when it is refused or errors, lead-in included;
		// only measured requests give latencies.
		for _, r := range rep.Records {
			if r.Status != http.StatusOK {
				failed++
				statuses[r.Status]++
			} else if !r.Lead {
				lat = append(lat, time.Duration(r.LatNanos))
			}
		}
		records = append(records, rep.Records...)
		window += rep.WindowS
		mergeAnswers(rep, warm)
		var bad string
		if plans, bad, err = checkBodies(rep); err != nil {
			return nil, err
		}
		if bad != "" {
			return checkFailed(len(records), failed, "fleet %d: %s", i, bad), nil
		}
		last = rep
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed, by status %v\n", failed, len(records), statuses)
	}
	attempted := len(records)
	if len(lat) == 0 {
		return checkFailed(attempted, failed, "no request succeeded"), nil
	}

	if e.trace {
		m, err := fleetTrace(ctx, f, last, records, plans, delta, median(seconds(lat)))
		if err != nil {
			return nil, err
		}
		return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}, nil
	}

	m := map[string]metric{"setup_s": {Value: median(setups), Unit: "s", n: len(setups)}}
	latencyMetrics(m, lat, time.Duration(window*float64(time.Second)))
	var tps []float64
	for q := 0; q < fleetHot; q++ {
		p, ok := plans[q]
		if !ok {
			return nil, fmt.Errorf("hot question %d was never answered", q)
		}
		t, err := simThroughput(p.g, p.topo, p.art.Strategy)
		if err != nil {
			return nil, err
		}
		tps = append(tps, t)
	}
	sources := map[string]int{}
	for _, r := range records {
		sources[r.Source]++
	}
	m["samples_per_s"] = metric{Value: geomean(tps), Unit: "samples/s", n: len(tps),
		note: fmt.Sprintf("over the %d hottest questions; answers by source %v", fleetHot, sources)}
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
