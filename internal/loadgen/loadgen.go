// Package loadgen replays skewed synthetic planning traffic against a
// planning endpoint — one graphpiped or a fleet router — and reduces the
// outcome to the latency and hit-ratio numbers a capacity plan needs.
//
// The workload vocabulary is internal/synth: a seeded population of
// resolved specs (synth.Population) crossed with a device-count ladder
// gives K distinct planning questions, and a Zipf(s) sampler over their
// popularity ranks replays N requests the way real traffic would — a hot
// head the caches must absorb and a long tail that keeps missing. The
// whole run derives from one seed, so the identical request sequence can
// be replayed against a rebuilt fleet; aggregate statistics from a
// sampled slice then project full-scale behavior, in the spirit of the
// sampling-fidelity arguments the ROADMAP cites. Latency is tracked per
// cache tier (memory, disk, peer, cold), not just as a blended mean,
// because the tiers' costs are asymmetric.
package loadgen

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphpipe/internal/obs"
	"graphpipe/internal/service"
	"graphpipe/internal/strategy"
	"graphpipe/internal/synth"
)

// maxVerifyBytes bounds how much of a 200 body VerifyPlans will buffer
// for fingerprint verification — matches the router's own relay bound.
const maxVerifyBytes = 64 << 20

// Config describes one replay run.
type Config struct {
	// Target is the base URL traffic is replayed against (a router or a
	// single daemon).
	Target string
	// Requests is the replay length (default 1000).
	Requests int
	// Concurrency is the number of in-flight replay workers (default 8).
	Concurrency int
	// ZipfS is the popularity skew exponent: request i in the popularity
	// ranking is drawn proportionally to 1/(i+1)^s. 0 disables skew
	// (uniform); default 1.1, a web-traffic-like head.
	ZipfS float64
	// Population is the number of distinct planning questions (default
	// 32); Families narrows which synth families they draw from (empty:
	// all).
	Population int
	Families   []string
	// Devices is the device-count ladder the population cycles through
	// (default {2, 3, 4} — small counts keep cold searches cheap).
	Devices []int
	// Planner names the planner every request asks for (default
	// "graphpipe").
	Planner string
	// Seed derives the population and the sampled request sequence.
	Seed int64
	// BudgetMs stamps every request with an end-to-end time budget
	// (service.HeaderBudget); 0 sends none. Responses of 504 — budgets
	// that died mid-fleet — are counted apart from other errors, because
	// under injected faults a bounded 504 is correct degradation while a
	// hung request would be a bug.
	BudgetMs int
	// VerifyPlans re-verifies every 200 body against its fingerprint
	// (Result.ByteMismatches counts the failures — wrong bytes that
	// reached a client, acceptable only at zero) and tracks a content
	// hash per fingerprint across the run (Result.AlternatePlans counts
	// valid bodies that differ byte-wise from an earlier valid 200 for
	// the same question — independent re-plans, possible only when peer
	// cache-fill was unavailable).
	VerifyPlans bool
	// Pace is a per-worker sleep between requests (0: replay flat out).
	// A chaos soak paces its arrivals so time-based recovery — breaker
	// open windows, health probe rounds — is measured in requests the
	// fleet could plausibly see, not swamped at memory speed.
	Pace time.Duration
	// TraceSample traces every Nth replayed request (0 disables): the
	// request carries a deterministic X-Graphpipe-Trace ID and ?trace=1,
	// and the fleet answers with its span-tree envelope. Traced requests
	// feed Result.Phases (where slow-request time actually goes) and
	// Result.SlowTraces (exemplar span trees at the traced p99). Traced
	// bodies skip VerifyPlans hashing — the envelope re-encodes them.
	TraceSample int
	// Client issues the requests; nil uses a 60s-timeout client.
	Client *http.Client
}

// Result is one replay's reduced outcome.
type Result struct {
	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	Shed      int `json:"shed"`
	Errors    int `json:"errors"`
	// DeadlineExceeded counts 504s: budgets that expired somewhere in
	// the fleet. Kept apart from Errors because a chaos soak bounds the
	// two differently — deadline deaths are expected degradation under
	// faults, other errors are not.
	DeadlineExceeded int `json:"deadline_exceeded"`
	// ErrorRate is (Errors + DeadlineExceeded) / Requests: the fraction
	// of the replay that got neither an answer nor a clean shed.
	ErrorRate float64 `json:"error_rate"`
	// ByteMismatches counts 200 responses whose bytes failed fingerprint
	// verification (VerifyPlans only): corrupt or torn bodies that
	// reached a client. The never-a-wrong-byte invariant makes the only
	// acceptable value zero, faults or no faults.
	ByteMismatches int `json:"byte_mismatches"`
	// AlternatePlans counts valid 200 bodies that differed byte-wise
	// from an earlier valid 200 for the same fingerprint (VerifyPlans
	// only): a replica re-planned a question because its owner and every
	// peer were unreachable, and the re-plan's volatile planner metadata
	// (search seconds, memo reuse) differs. Expected zero on a healthy
	// fleet, small under chaos, and never wrong bytes.
	AlternatePlans int            `json:"alternate_plans"`
	Sources        map[string]int `json:"sources"`
	// DistinctFingerprints counts the unique plans the replay touched.
	DistinctFingerprints int `json:"distinct_fingerprints"`
	// HitRatio is warm answers (hit-memory + hit-disk + hit-peer) over
	// completed requests.
	HitRatio float64 `json:"hit_ratio"`
	// Overall, Cold (source "miss"), and Warm (any hit-*) latency
	// percentiles, plus per-tier breakdowns keyed by source.
	Overall     Percentiles            `json:"overall"`
	Cold        Percentiles            `json:"cold"`
	Warm        Percentiles            `json:"warm"`
	TierLatency map[string]Percentiles `json:"tier_latency"`
	// PeerFills and Planned are fleet-stats deltas across the run: how
	// many local misses a peer's cache absorbed, and how many cold
	// searches actually ran anywhere in the fleet.
	PeerFills uint64 `json:"peer_fills"`
	Planned   uint64 `json:"planned"`
	// Phases attributes traced requests' slow tail to serving phases
	// (TraceSample only).
	Phases *PhaseBreakdown `json:"phases,omitempty"`
	// SlowTraces are exemplar span trees from the traced requests at or
	// above the traced sample's p99 latency (TraceSample only, capped) —
	// the raw material behind Phases, kept so a slow replay leaves
	// something replayable behind, not just shares.
	SlowTraces []*obs.TraceExport `json:"slow_traces,omitempty"`
	// WallSeconds is the replay's wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
}

// PhaseBreakdown says where the traced slow tail's time went: shares of
// the exemplar requests' total span time in the admission queue, the
// planner search, cache probes, peer fills, and the network between
// router and shard. Shares are of measured root-span time; Other is
// whatever the span taxonomy did not cover. Queue-dominated and
// search-dominated p99s call for different capacity fixes — that
// distinction is this struct's whole job.
type PhaseBreakdown struct {
	// Traced counts the traced requests the breakdown reduced; Exemplars
	// counts the slow subset (traced latency >= traced p99) attributed.
	Traced    int `json:"traced"`
	Exemplars int `json:"exemplars"`
	// Shares sum to ~1 over queue, search, cache, peer, network, other.
	QueueShare   float64 `json:"queue_share"`
	SearchShare  float64 `json:"search_share"`
	CacheShare   float64 `json:"cache_share"`
	PeerShare    float64 `json:"peer_share"`
	NetworkShare float64 `json:"network_share"`
	OtherShare   float64 `json:"other_share"`
}

// Percentiles summarizes a latency sample in seconds.
type Percentiles struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50_s"`
	P95   float64 `json:"p95_s"`
	P99   float64 `json:"p99_s"`
	Max   float64 `json:"max_s"`
}

func percentiles(samples []float64) Percentiles {
	p := Percentiles{Count: len(samples)}
	if len(samples) == 0 {
		return p
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(q*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	p.P50, p.P95, p.P99, p.Max = at(0.50), at(0.95), at(0.99), sorted[len(sorted)-1]
	return p
}

// outcome is one replayed request's record.
type outcome struct {
	seconds float64
	source  string // X-Graphpipe-Cache, "" on failure
	fp      string
	status  int
	err     bool
	invalid bool              // a 200 whose body failed fingerprint verification
	hash    [sha256.Size]byte // body hash of a 200, for byte-identity checks
	traced  bool
	traces  []*obs.TraceExport // unwrapped span trees of a traced 200
}

// Run generates the population, replays the sampled sequence, and
// reduces it. The only hard failure is being unable to construct the
// workload or reach the target for stats at all — individual request
// failures are counted, not fatal, because measuring an overloaded
// fleet is the point of the exercise.
func Run(cfg Config) (*Result, error) {
	if cfg.Requests <= 0 {
		cfg.Requests = 1000
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.1
	}
	if cfg.Population <= 0 {
		cfg.Population = 32
	}
	if len(cfg.Devices) == 0 {
		cfg.Devices = []int{2, 3, 4}
	}
	if cfg.Planner == "" {
		cfg.Planner = "graphpipe"
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if cfg.Target == "" {
		return nil, fmt.Errorf("loadgen: no target")
	}

	bodies, err := buildBodies(cfg)
	if err != nil {
		return nil, err
	}
	seq := sampleSequence(cfg, len(bodies))

	before, err := fetchFleetStats(cfg.Client, cfg.Target)
	if err != nil {
		return nil, fmt.Errorf("loadgen: target stats before run: %w", err)
	}

	outcomes := make([]outcome, len(seq))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				traceID := ""
				if cfg.TraceSample > 0 && i%cfg.TraceSample == 0 {
					// Deterministic in (seed, index): rerunning the replay
					// re-traces the same requests with the same IDs.
					traceID = fmt.Sprintf("fleetgen-%d-%d", cfg.Seed, i)
				}
				outcomes[i] = replayOne(cfg, bodies[seq[i]], traceID)
				if cfg.Pace > 0 {
					time.Sleep(cfg.Pace)
				}
			}
		}()
	}
	for i := range seq {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start).Seconds()

	after, err := fetchFleetStats(cfg.Client, cfg.Target)
	if err != nil {
		return nil, fmt.Errorf("loadgen: target stats after run: %w", err)
	}

	return reduce(cfg, outcomes, wall, before, after), nil
}

// buildBodies renders the distinct request bodies: the spec population
// crossed with the device ladder, round-robin. Bodies are index-aligned
// with popularity rank — index 0 is the hottest question.
func buildBodies(cfg Config) ([]string, error) {
	specs, err := synth.Population(cfg.Families, cfg.Population, cfg.Seed)
	if err != nil {
		return nil, err
	}
	bodies := make([]string, len(specs))
	for i, s := range specs {
		bodies[i] = fmt.Sprintf(`{"model":%q,"devices":%d,"planner":%q}`,
			s.String(), cfg.Devices[i%len(cfg.Devices)], cfg.Planner)
	}
	return bodies, nil
}

// sampleSequence draws the replay order: Requests indices into the
// population, Zipf-weighted by rank. The draw is fully deterministic in
// (Seed, Requests, Population, ZipfS).
func sampleSequence(cfg Config, population int) []int {
	z := newZipf(cfg.ZipfS, population)
	r := newRNG(cfg.Seed, "loadgen/sequence")
	seq := make([]int, cfg.Requests)
	for i := range seq {
		seq[i] = z.sample(r.float())
	}
	return seq
}

func replayOne(cfg Config, body, traceID string) outcome {
	start := time.Now()
	url := cfg.Target + "/v1/plan"
	if traceID != "" {
		url += "?trace=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return outcome{err: true}
	}
	req.Header.Set("Content-Type", "application/json")
	if cfg.BudgetMs > 0 {
		req.Header.Set(service.HeaderBudget, strconv.Itoa(cfg.BudgetMs))
	}
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return outcome{seconds: time.Since(start).Seconds(), err: true}
	}
	defer resp.Body.Close()
	o := outcome{
		status: resp.StatusCode,
		source: resp.Header.Get(service.HeaderCache),
		fp:     resp.Header.Get(service.HeaderFingerprint),
		traced: traceID != "",
	}
	switch {
	case resp.StatusCode == http.StatusOK && o.traced:
		// The body is a span-tree envelope (possibly nested: router
		// around shard); keep the trees, and skip verification — the
		// envelope re-encoded the payload.
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxVerifyBytes))
		if err != nil {
			return outcome{seconds: time.Since(start).Seconds(), err: true}
		}
		o.traces, _, _ = obs.UnwrapEnvelope(data)
	case resp.StatusCode == http.StatusOK && cfg.VerifyPlans:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxVerifyBytes))
		if err != nil {
			// A body that tears mid-read never completed: count it with
			// the transport errors, not as a (possibly short) answer.
			return outcome{seconds: time.Since(start).Seconds(), err: true}
		}
		o.hash = sha256.Sum256(data)
		if o.fp != "" {
			if _, verr := strategy.VerifyArtifactBytes(o.fp, data); verr != nil {
				o.invalid = true
			}
		}
	default:
		io.Copy(io.Discard, resp.Body)
	}
	o.seconds = time.Since(start).Seconds()
	if resp.StatusCode != http.StatusOK {
		o.source, o.fp = "", ""
	}
	return o
}

func reduce(cfg Config, outcomes []outcome, wall float64, before, after *service.Stats) *Result {
	delta := func(key string) uint64 { return uint64(after.Values[key] - before.Values[key]) }
	res := &Result{
		Requests:    cfg.Requests,
		Sources:     make(map[string]int),
		TierLatency: make(map[string]Percentiles),
		WallSeconds: wall,
		PeerFills:   delta("peer_fills"),
		Planned:     delta("planned"),
	}
	var all, cold, warm []float64
	tiers := make(map[string][]float64)
	fps := make(map[string]bool)
	firstHash := make(map[string][sha256.Size]byte)
	for _, o := range outcomes {
		switch {
		case o.err:
			res.Errors++
			continue
		case o.status == http.StatusTooManyRequests:
			res.Shed++
			continue
		case o.status == http.StatusGatewayTimeout:
			res.DeadlineExceeded++
			continue
		case o.status != http.StatusOK:
			res.Errors++
			continue
		}
		res.Completed++
		res.Sources[o.source]++
		fps[o.fp] = true
		if cfg.VerifyPlans && !o.traced {
			switch prev, seen := firstHash[o.fp]; {
			case o.invalid:
				res.ByteMismatches++
			case !seen:
				firstHash[o.fp] = o.hash
			case prev != o.hash:
				res.AlternatePlans++
			}
		}
		all = append(all, o.seconds)
		tiers[o.source] = append(tiers[o.source], o.seconds)
		if strings.HasPrefix(o.source, "hit-") {
			warm = append(warm, o.seconds)
		} else if o.source == "miss" {
			cold = append(cold, o.seconds)
		}
	}
	res.DistinctFingerprints = len(fps)
	if res.Requests > 0 {
		res.ErrorRate = float64(res.Errors+res.DeadlineExceeded) / float64(res.Requests)
	}
	if res.Completed > 0 {
		hits := res.Sources["hit-memory"] + res.Sources["hit-disk"] + res.Sources["hit-peer"]
		res.HitRatio = float64(hits) / float64(res.Completed)
	}
	res.Overall = percentiles(all)
	res.Cold = percentiles(cold)
	res.Warm = percentiles(warm)
	for src, samples := range tiers {
		res.TierLatency[src] = percentiles(samples)
	}
	if cfg.TraceSample > 0 {
		res.Phases, res.SlowTraces = attributePhases(outcomes)
	}
	return res
}

// maxSlowTraces caps how many exemplar span trees a result carries —
// enough to eyeball, not a replay-sized dump.
const maxSlowTraces = 3

// attributePhases reduces the traced outcomes to a slow-tail phase
// breakdown: take the traced requests at or above the traced sample's
// p99 latency, sum each serving phase's span time across their trees,
// and report shares of root-span time. Phases are matched by span name
// — the taxonomy docs/ARCHITECTURE.md fixes — and network time is what
// remains of a router backend attempt (or shard peer attempt) after
// subtracting the remote process's own root span.
func attributePhases(outcomes []outcome) (*PhaseBreakdown, []*obs.TraceExport) {
	var traced []outcome
	var lats []float64
	for _, o := range outcomes {
		if o.traced && len(o.traces) > 0 {
			traced = append(traced, o)
			lats = append(lats, o.seconds)
		}
	}
	if len(traced) == 0 {
		return &PhaseBreakdown{}, nil
	}
	threshold := percentiles(lats).P99
	bd := &PhaseBreakdown{Traced: len(traced)}
	var slow []*obs.TraceExport
	var total, queue, search, cache, peer, network float64
	for _, o := range traced {
		if o.seconds < threshold {
			continue
		}
		bd.Exemplars++
		p := tracePhases(o.traces)
		total += p.total
		queue += p.queue
		search += p.search
		cache += p.cache
		peer += p.peer
		network += p.network
		if bd.Exemplars <= maxSlowTraces {
			slow = append(slow, o.traces...)
		}
	}
	if total > 0 {
		bd.QueueShare = queue / total
		bd.SearchShare = search / total
		bd.CacheShare = cache / total
		bd.PeerShare = peer / total
		bd.NetworkShare = network / total
		if rest := 1 - (bd.QueueShare + bd.SearchShare + bd.CacheShare + bd.PeerShare + bd.NetworkShare); rest > 0 {
			bd.OtherShare = rest
		}
	}
	return bd, slow
}

// phaseTimes is one traced request's span time per phase, in
// microseconds (the span unit; shares cancel the unit anyway).
type phaseTimes struct {
	total, queue, search, cache, peer, network float64
}

// tracePhases walks one request's span-tree union (router + shards).
// The counted phases are disjoint subtrees of the request: admission
// wait, planner search, cache probes, and peer fill are sibling spans
// on the shard, and network is what remains of a router backend
// attempt after subtracting the shard's own root span (a peer
// attempt's wire time is not counted again — it is already inside
// peer.fill).
func tracePhases(traces []*obs.TraceExport) phaseTimes {
	var p phaseTimes
	// Remote root time per parent span: a shard's root span reports its
	// parent as the caller's attempt span ID via the propagated header.
	remote := make(map[string]float64)
	for _, tr := range traces {
		for _, s := range tr.Spans {
			if s.Parent != "" && !strings.HasPrefix(s.Parent, tr.Process+"-") {
				remote[s.Parent] += float64(s.DurUs)
			}
		}
	}
	for _, tr := range traces {
		for _, s := range tr.Spans {
			switch {
			case s.Parent == "":
				p.total += float64(s.DurUs)
			case s.Name == "admission.wait":
				p.queue += float64(s.DurUs)
			case s.Name == "planner.search":
				p.search += float64(s.DurUs)
			case strings.HasPrefix(s.Name, "cache."):
				p.cache += float64(s.DurUs)
			case s.Name == "peer.fill":
				p.peer += float64(s.DurUs)
			}
			if s.Name == "backend.attempt" {
				if net := float64(s.DurUs) - remote[s.ID]; net > 0 {
					p.network += net
				}
			}
		}
	}
	return p
}

// fetchFleetStats reads /v1/stats from either a router (whose body
// nests the fleet-summed stats under "fleet") or a bare daemon (whose
// body is the stats themselves).
func fetchFleetStats(client *http.Client, target string) (*service.Stats, error) {
	resp, err := client.Get(target + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var probe struct {
		Fleet *service.Stats `json:"fleet"`
	}
	if err := json.Unmarshal(data, &probe); err != nil || probe.Fleet != nil {
		return probe.Fleet, err
	}
	st := new(service.Stats)
	return st, json.Unmarshal(data, st)
}
