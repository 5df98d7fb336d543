package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"graphpipe/internal/obs"
	"graphpipe/internal/service"
)

// FleetStats is the router's /v1/stats body. Each backend's /metrics
// scrape renders as its stats, and all scrapes together render as the
// fleet's — the series-by-series sum (see obs.Sum), the view a dashboard
// watches, while the per-backend map shows skew.
type FleetStats struct {
	Fleet service.Stats `json:"fleet"`
	// Backends maps each backend to its stats; null when its /metrics
	// could not be read just now.
	Backends map[string]*service.Stats `json:"backends"`
	Router   RouterStats               `json:"router"`
}

// routerView is the counter half of the router block. Adding a router
// counter takes two edits: register it in registerMetrics and give it a
// key here.
var routerView = obs.View{
	{Key: "routed", Series: "graphpipe_router_routed_total"},
	{Key: "failovers", Series: "graphpipe_router_failovers_total"},
	{Key: "retried_429", Series: "graphpipe_router_retried_429_total"},
	{Key: "bad_requests", Series: "graphpipe_router_bad_requests_total"},
	{Key: "no_backend", Series: "graphpipe_router_no_backend_total"},
	{Key: "breaker_rejections", Series: "graphpipe_router_breaker_rejections_total"},
	{Key: "breaker_opens", Series: "graphpipe_router_breaker_opens_total"},
	{Key: "deadline_rejections", Series: "graphpipe_router_deadline_rejections_total"},
	{Key: "corrupt_bodies", Series: "graphpipe_router_corrupt_bodies_total"},
	{Key: "hedged", Series: "graphpipe_router_hedged_total"},
	{Key: "hedge_wins", Series: "graphpipe_router_hedge_wins_total"},
}

// RouterStats is the router's own block, distinct from anything the
// shards report.
type RouterStats struct {
	// Values holds every routerView key.
	Values map[string]float64 `json:"-"`
	// Breakers maps each backend to its breaker state ("closed",
	// "open", "half-open") at snapshot time.
	Breakers map[string]string `json:"breakers,omitempty"`
	// Unhealthy lists backends currently marked down.
	Unhealthy []string `json:"unhealthy,omitempty"`
	// InFlight is the router's per-backend in-flight proxied requests —
	// the load the bounded-load rule balances on.
	InFlight map[string]int64 `json:"in_flight"`
	// FaultsInjected tallies the router's own injected faults by
	// "site/kind" (empty without a fault spec); shard-side tallies
	// appear in each backend's stats instead.
	FaultsInjected map[string]uint64 `json:"faults_injected,omitempty"`
}

// routerFields is RouterStats without its JSON methods.
type routerFields RouterStats

// MarshalJSON writes the routerView keys in table order, then the
// router's state.
func (s RouterStats) MarshalJSON() ([]byte, error) {
	return routerView.Marshal(s.Values, routerFields(s))
}

// UnmarshalJSON reads a body MarshalJSON wrote.
func (s *RouterStats) UnmarshalJSON(data []byte) error {
	return routerView.Unmarshal(data, &s.Values, (*routerFields)(s))
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	own := r.reg.Samples()
	out := FleetStats{
		Backends: make(map[string]*service.Stats, len(r.cfg.Backends)),
		Router: RouterStats{
			Values:         routerView.Read(own),
			Breakers:       make(map[string]string, len(r.breakers)),
			Unhealthy:      r.unhealthy(),
			InFlight:       make(map[string]int64, len(r.inflight)),
			FaultsInjected: obs.Tallies(own, "graphpipe_faults_injected_total", "site"),
		},
	}
	for _, b := range r.cfg.Backends {
		out.Router.Breakers[b] = r.breakers[b].State().String()
		out.Router.InFlight[b] = r.inflight[b].Load()
	}

	scraped := make([][]obs.Sample, len(r.cfg.Backends))
	errs := make([]error, len(r.cfg.Backends))
	var wg sync.WaitGroup
	for i, b := range r.cfg.Backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scraped[i], errs[i] = r.scrape(req.Context(), b)
		}()
	}
	wg.Wait()
	for i, b := range r.cfg.Backends {
		out.Backends[b] = nil // unreachable right now
		if errs[i] == nil {
			st := service.RenderStats(scraped[i])
			out.Backends[b] = &st
		}
	}
	out.Fleet = service.RenderStats(slices.Concat(scraped...))

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// scrape reads one backend's /metrics — the stats fetch and the health
// probe alike.
func (r *Router) scrape(ctx context.Context, backend string) ([]obs.Sample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", backend, resp.StatusCode)
	}
	return obs.ParseSamples(resp.Body)
}
