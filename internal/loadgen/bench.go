package loadgen

import (
	"fmt"
	"strconv"
	"strings"
)

// BenchLine renders the result as one `go test -bench`-style line,
// the same format as the planner microbenchmarks, so one line of
// whitespace-separated value/unit pairs carries the fleet's numbers
// (scripts/fleet_smoke.sh reads its warm/cold gate metrics with awk).
//
// Metric names double as the "units" column, matching the harness's
// custom-metric convention (replan_warm_s, search_s, ...). Empty
// latency classes (no cold requests in a fully warm replay, say) omit
// their metrics rather than reporting a misleading zero.
func (r *Result) BenchLine() string {
	var b strings.Builder
	b.WriteString("BenchmarkFleetGen 1")
	emit := func(name string, v float64) {
		b.WriteString(" ")
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		b.WriteString(" ")
		b.WriteString(name)
	}
	emit("fleet_requests", float64(r.Requests))
	emit("fleet_completed", float64(r.Completed))
	emit("fleet_shed", float64(r.Shed))
	emit("fleet_errors", float64(r.Errors))
	if r.Requests > 0 {
		emit("fleet_shed_rate", float64(r.Shed)/float64(r.Requests))
	}
	emit("fleet_hit_ratio", r.HitRatio)
	emit("fleet_distinct_fps", float64(r.DistinctFingerprints))
	emit("fleet_p50_s", r.Overall.P50)
	emit("fleet_p95_s", r.Overall.P95)
	emit("fleet_p99_s", r.Overall.P99)
	if r.Warm.Count > 0 {
		emit("fleet_warm_p99_s", r.Warm.P99)
	}
	if r.Cold.Count > 0 {
		emit("fleet_cold_p50_s", r.Cold.P50)
	}
	for _, tier := range []string{"hit-memory", "hit-disk", "hit-peer", "shared", "miss"} {
		if p, ok := r.TierLatency[tier]; ok && p.Count > 0 {
			slug := strings.ReplaceAll(tier, "-", "_")
			emit(fmt.Sprintf("fleet_%s_count", slug), float64(p.Count))
			emit(fmt.Sprintf("fleet_%s_p50_s", slug), p.P50)
		}
	}
	emit("fleet_peer_fills", float64(r.PeerFills))
	emit("fleet_planned", float64(r.Planned))
	if p := r.Phases; p != nil && p.Exemplars > 0 {
		emit("fleet_phase_queue_share", p.QueueShare)
		emit("fleet_phase_search_share", p.SearchShare)
		emit("fleet_phase_cache_share", p.CacheShare)
		emit("fleet_phase_peer_share", p.PeerShare)
		emit("fleet_phase_network_share", p.NetworkShare)
		emit("fleet_phase_other_share", p.OtherShare)
	}
	emit("fleet_wall_s", r.WallSeconds)
	return b.String()
}
