package service

import "graphpipe/internal/obs"

// stats is the service's observability state. Every counter is an obs
// counter registered in the service's metrics registry, and /v1/stats
// renders from that registry (statsView), so the two surfaces cannot
// disagree.
type stats struct {
	reg *obs.Registry

	hitsMemory, hitsDisk, misses, planned, sharedWaits, rejected, evals *obs.Counter
	diskFailures, memoWarmHits, memoEntriesReused                       *obs.Counter
	peerFills, peerMisses, peerErrors, peerTimeouts, deadlineRejections *obs.Counter
	memoOffersSent, memoOffersReceived                                  *obs.Counter
}

func newStats() *stats {
	r := obs.NewRegistry()
	c := func(name, help string) *obs.Counter { return r.Counter(name, help, nil) }
	hits := func(tier string) *obs.Counter {
		return r.Counter("graphpipe_cache_hits_total", "Plan requests answered by a cache tier.", obs.Labels{"tier": tier})
	}
	return &stats{
		reg:                r,
		hitsMemory:         hits("memory"),
		hitsDisk:           hits("disk"),
		misses:             c("graphpipe_cache_misses_total", "Plan requests that missed both local tiers."),
		planned:            c("graphpipe_planned_total", "Cold planner runs."),
		sharedWaits:        c("graphpipe_shared_waits_total", "Requests that piggybacked on another request's planner run."),
		rejected:           c("graphpipe_rejected_total", "Admissions refused with 429 (queue full)."),
		evals:              c("graphpipe_evals_total", "Evaluation runs."),
		diskFailures:       c("graphpipe_disk_failures_total", "Disk-tier reads/writes that errored; each degraded to a miss."),
		memoWarmHits:       c("graphpipe_memo_warm_hits_total", "Planner runs that imported a compatible DP memo snapshot."),
		memoEntriesReused:  c("graphpipe_memo_entries_reused_total", "Imported memo entries consulted by warm-started runs."),
		peerFills:          c("graphpipe_peer_fills_total", "Local misses answered by a ring peer's artifact."),
		peerMisses:         c("graphpipe_peer_misses_total", "Full peer consults that found nothing."),
		peerErrors:         c("graphpipe_peer_errors_total", "Unreachable or invalid peer answers."),
		peerTimeouts:       c("graphpipe_peer_timeouts_total", "Peer consults/offers cut off by a timeout or budget."),
		deadlineRejections: c("graphpipe_deadline_rejections_total", "Requests answered 504 because their time budget expired."),
		memoOffersSent:     c("graphpipe_memo_offers_sent_total", "DP memo snapshots pushed to ring peers."),
		memoOffersReceived: c("graphpipe_memo_offers_received_total", "DP memo snapshots accepted from peers."),
	}
}

func (s *stats) observePlanner(name string, seconds float64) {
	s.reg.Histogram("graphpipe_planner_search_seconds",
		"Planner search latency by planner.", obs.Labels{"planner": name}, nil).Observe(seconds)
}

// observeRequest records one HTTP request's end-to-end latency by route
// ("plan", "eval", ...), feeding graphpipe_request_seconds on /metrics.
func (s *stats) observeRequest(route string, seconds float64) {
	s.reg.Histogram("graphpipe_request_seconds",
		"HTTP request latency by route.", obs.Labels{"route": route}, nil).Observe(seconds)
}

// statsView is the scalar half of GET /v1/stats: each JSON key and the
// series it reads. Adding a counter takes two edits in this file:
// register it in newStats and give it a key here. A key whose series is
// not registered (memo_* without a memo store) reads 0.
var statsView = obs.View{
	{Key: "hits_memory", Series: `graphpipe_cache_hits_total{tier="memory"}`},
	{Key: "hits_disk", Series: `graphpipe_cache_hits_total{tier="disk"}`},
	{Key: "misses", Series: "graphpipe_cache_misses_total"},
	{Key: "planned", Series: "graphpipe_planned_total"},
	{Key: "shared_waits", Series: "graphpipe_shared_waits_total"},
	{Key: "rejected", Series: "graphpipe_rejected_total"},
	{Key: "evals", Series: "graphpipe_evals_total"},
	{Key: "disk_failures", Series: "graphpipe_disk_failures_total"},
	{Key: "memo_warm_hits", Series: "graphpipe_memo_warm_hits_total"},
	{Key: "memo_entries_reused", Series: "graphpipe_memo_entries_reused_total"},
	{Key: "peer_fills", Series: "graphpipe_peer_fills_total"},
	{Key: "peer_misses", Series: "graphpipe_peer_misses_total"},
	{Key: "peer_errors", Series: "graphpipe_peer_errors_total"},
	{Key: "peer_timeouts", Series: "graphpipe_peer_timeouts_total"},
	{Key: "deadline_rejections", Series: "graphpipe_deadline_rejections_total"},
	{Key: "memo_offers_sent", Series: "graphpipe_memo_offers_sent_total"},
	{Key: "memo_offers_received", Series: "graphpipe_memo_offers_received_total"},
	{Key: "in_flight", Series: "graphpipe_in_flight"},
	{Key: "queued", Series: "graphpipe_queued"},
	{Key: "memory_entries", Series: "graphpipe_memory_entries"},
	{Key: "memory_evictions", Series: "graphpipe_memory_evictions_total"},
	{Key: "memo_snapshots", Series: "graphpipe_memo_snapshots"},
	{Key: "memo_installs", Series: "graphpipe_memo_installs_total"},
	{Key: "memo_evictions", Series: "graphpipe_memo_evictions_total"},
	{Key: "memo_disk_failures", Series: "graphpipe_memo_disk_failures_total"},
}

// Stats is a GET /v1/stats body, rendered from metric samples.
type Stats struct {
	// Values holds every statsView key.
	Values map[string]float64 `json:"-"`
	// PlannerLatency regroups graphpipe_planner_search_seconds by planner.
	PlannerLatency map[string]obs.HistogramSnapshot `json:"planner_latency,omitempty"`
	// FaultsInjected regroups graphpipe_faults_injected_total by
	// "site/kind": empty in production, under chaos the cause of every
	// observed degradation.
	FaultsInjected map[string]uint64 `json:"faults_injected,omitempty"`
}

// RenderStats renders a /v1/stats body from samples: a daemon's own
// registry, one scraped /metrics body, or several concatenated, which
// renders their sum.
func RenderStats(samples []obs.Sample) Stats {
	return Stats{
		Values:         statsView.Read(samples),
		PlannerLatency: obs.Histograms(samples, "graphpipe_planner_search_seconds", "planner"),
		FaultsInjected: obs.Tallies(samples, "graphpipe_faults_injected_total", "site"),
	}
}

// statsFields is Stats without its JSON methods.
type statsFields Stats

// MarshalJSON writes the statsView keys in table order, then the
// regrouped families.
func (s Stats) MarshalJSON() ([]byte, error) {
	return statsView.Marshal(s.Values, statsFields(s))
}

// UnmarshalJSON reads a body MarshalJSON wrote.
func (s *Stats) UnmarshalJSON(data []byte) error {
	return statsView.Unmarshal(data, &s.Values, (*statsFields)(s))
}
