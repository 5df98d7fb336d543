// Package faultinject is the repository's deterministic chaos layer: a
// seeded source of injected failures that wraps the fleet's HTTP
// transports (latency, dropped connections, mid-body truncation,
// injected 5xx, corrupted artifact bytes) and its disk stores (failed
// and partial writes, read corruption), so the degradation paths the
// fleet promises — peer consults that time out, corrupt bytes that
// become misses, breakers that open and re-close — are reachable on
// demand instead of waiting for production to reach them.
//
// The design follows internal/synth's replay philosophy: every fault
// decision is drawn from a salted splitmix64 stream, never math/rand,
// so a fault schedule is a pure function of (seed, site, draw index)
// and replays identically across machines and Go releases. Each fault
// site — one kind at one named wrap point, e.g. the peer client's
// "peers/http.drop" — owns its stream and its draw counter; under
// concurrency the assignment of faults to specific requests follows
// the arrival order at that site, but which of the site's first N
// draws inject is fixed by the seed, so aggregate fault counts and the
// site-local schedule are reproducible.
//
// A Set is parsed from a spec string, selectable per process via flag
// or environment:
//
//	seed=42;window=400;http.latency=0.2:50ms;http.drop=0.1;http.err5xx=0.1;disk.read-corrupt=0.2
//
// `window=N` bounds the chaos: after N draws a site stops injecting
// forever, which is how a soak creates a deterministic "fault window"
// and then asserts the fleet heals (breakers re-close, error rate
// returns to zero) once it passes.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Fault kind names as they appear in spec strings and tally keys.
const (
	KindLatency      = "http.latency"
	KindDrop         = "http.drop"
	KindTruncate     = "http.truncate"
	KindErr5xx       = "http.err5xx"
	KindCorrupt      = "http.corrupt"
	KindWriteFail    = "disk.write-fail"
	KindWritePartial = "disk.write-partial"
	KindReadCorrupt  = "disk.read-corrupt"
)

var allKinds = []string{
	KindLatency, KindDrop, KindTruncate, KindErr5xx, KindCorrupt,
	KindWriteFail, KindWritePartial, KindReadCorrupt,
}

// kindSpec is one fault kind's parsed configuration.
type kindSpec struct {
	prob    float64
	latency time.Duration // KindLatency only
}

// Set is a parsed fault specification. A nil *Set is the disabled
// layer: every wrapping method is a no-op, so callers thread one
// pointer through unconditionally. Create with Parse.
type Set struct {
	spec   string
	seed   int64
	window uint64
	kinds  map[string]kindSpec

	mu    sync.Mutex
	sites map[string]*site // "name/kind" → site, created lazily
}

// Parse builds a Set from a spec string. The empty string returns
// (nil, nil): faults disabled. Entries are semicolon-separated k=v
// pairs: `seed=<int>` (default 1), `window=<draws>` (0 = unbounded),
// and `<kind>=<prob>` for each fault kind (KindLatency takes
// `<prob>:<duration>`). Probabilities must lie in [0, 1].
func Parse(spec string) (*Set, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	s := &Set{
		spec:  spec,
		seed:  1,
		kinds: make(map[string]kindSpec),
		sites: make(map[string]*site),
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: entry %q is not key=value", part)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: seed %q: %v", v, err)
			}
			s.seed = n
		case "window":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: window %q: %v", v, err)
			}
			s.window = n
		case KindLatency:
			prob, dur, ok := strings.Cut(v, ":")
			if !ok {
				return nil, fmt.Errorf("faultinject: %s wants prob:duration, got %q", k, v)
			}
			p, err := parseProb(k, prob)
			if err != nil {
				return nil, err
			}
			d, err := time.ParseDuration(dur)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultinject: %s duration %q: %v", k, dur, err)
			}
			s.kinds[k] = kindSpec{prob: p, latency: d}
		default:
			if !isKind(k) {
				return nil, fmt.Errorf("faultinject: unknown key %q (kinds: %s)", k, strings.Join(allKinds, ", "))
			}
			p, err := parseProb(k, v)
			if err != nil {
				return nil, err
			}
			s.kinds[k] = kindSpec{prob: p}
		}
	}
	return s, nil
}

func parseProb(kind, v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("faultinject: %s probability %q must be in [0, 1]", kind, v)
	}
	return p, nil
}

func isKind(k string) bool {
	for _, kind := range allKinds {
		if k == kind {
			return true
		}
	}
	return false
}

// String returns the spec the Set was parsed from ("" for nil): the
// replay key a chaos harness records alongside its results.
func (s *Set) String() string {
	if s == nil {
		return ""
	}
	return s.spec
}

// site returns (creating on first use) the decision stream for one
// fault kind at one named wrap point. Kinds absent from the spec get a
// zero-probability site, which never injects but still keeps the tally
// map's shape stable.
func (s *Set) site(name, kind string) *site {
	key := name + "/" + kind
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.sites[key]; ok {
		return st
	}
	st := &site{
		prob:   s.kinds[kind].prob,
		window: s.window,
		rng:    newRNG(s.seed, key),
	}
	s.sites[key] = st
	return st
}

// Tallies snapshots how many faults each site has injected so far,
// keyed "name/kind". Sites that have injected nothing are omitted; a
// nil Set returns nil. The service and router surface this map in
// /v1/stats so every observed degradation can be matched to the fault
// that caused it.
func (s *Set) Tallies() map[string]uint64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64)
	for key, st := range s.sites {
		if n := st.tally(); n > 0 {
			out[key] = n
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Quiesced reports whether the Set's fault window is fully spent:
// window > 0 and every configured fault kind at every instantiated
// site has consumed its draws. After Quiesced returns true the wire
// and disks are guaranteed fault-free — the soak harness's signal to
// start asserting recovery (breakers re-closing, error rate zero)
// instead of sleeping and hoping. A nil Set is trivially quiesced; a
// windowless Set never is.
func (s *Set) Quiesced() bool {
	if s == nil {
		return true
	}
	if s.window == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, st := range s.sites {
		_, kind, _ := strings.Cut(key, "/")
		if s.kinds[kind].prob == 0 {
			continue // zero-probability sites never inject anyway
		}
		st.mu.Lock()
		spent := st.draws >= st.window
		st.mu.Unlock()
		if !spent {
			return false
		}
	}
	return true
}

// Kinds lists the fault kinds this Set configures with non-zero
// probability, sorted — the soak harness asserts how many kinds were
// active.
func (s *Set) Kinds() []string {
	if s == nil {
		return nil
	}
	var out []string
	for k, spec := range s.kinds {
		if spec.prob > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// site is one fault kind's decision stream at one wrap point: a salted
// splitmix64 sequence, a draw counter, and an injected-fault tally.
type site struct {
	mu       sync.Mutex
	rng      rng
	prob     float64
	window   uint64 // 0: unbounded
	draws    uint64
	injected uint64
}

// roll makes one fault decision. Past the window the stream is spent:
// the site never injects again (and stops drawing, so post-window
// behavior is literally fault-free, not just improbable).
func (s *site) roll() bool {
	if s == nil || s.prob == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.window > 0 && s.draws >= s.window {
		return false
	}
	s.draws++
	if s.rng.float() >= s.prob {
		return false
	}
	s.injected++
	return true
}

// next draws one raw value from the site's stream — used for the
// deterministic placement of corruption inside a body the roll already
// condemned.
func (s *site) next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.next()
}

func (s *site) tally() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// rng is the same splitmix64 stream internal/synth and
// internal/loadgen use (each keeps its own unexported copy on
// purpose): no math/rand, so a fault schedule replays identically
// across Go releases.
type rng struct{ state uint64 }

func newRNG(seed int64, salt string) rng {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	for _, b := range []byte(salt) {
		h ^= uint64(b)
		h *= 0x100000001B3
	}
	return rng{state: h}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
