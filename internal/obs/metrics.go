// Package obs is the repository's zero-dependency observability layer:
// request tracing (typed spans with cross-process parentage, propagated
// over HTTP headers) and metrics (counters, gauges, histograms) exported
// in the Prometheus text exposition format.
//
// The two halves share one design rule: deterministic where tests look.
// Trace and span IDs derive from a process name plus a per-process
// counter — no randomness — so a test that names its processes gets
// byte-stable IDs; metrics render in sorted order so the exposition
// output is goldenable. Everything is safe for concurrent use.
//
// Metrics naming follows Prometheus conventions: a `graphpipe_` prefix,
// `_total` on counters, base units in the name (`_seconds`, `_bytes`),
// labels for bounded dimensions (cache tier, planner name, backend URL)
// and never for unbounded ones.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing metric. The zero value is
// usable but unregistered; obtain registered counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefaultLatencyBounds are the upper bounds (seconds) of latency
// histogram buckets, spanning sub-millisecond case-study plans to
// Piper's minutes-long searches; the implicit final bucket is +Inf.
// (Moved here from internal/service so the router and the service share
// one bucket ladder.)
var DefaultLatencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 300,
}

// Histogram accumulates observations into fixed buckets
// (Prometheus-style: per-bucket counts internally, cumulative on
// export).
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64
	buckets []uint64 // len(bounds)+1; last is +Inf
	count   uint64
	sum     float64
}

// NewHistogram builds an unregistered histogram over the given upper
// bounds (nil: DefaultLatencyBounds).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	return &Histogram{bounds: bounds, buckets: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.buckets[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// HistogramSnapshot is the exported form of one histogram.
type HistogramSnapshot struct {
	// Count and SumSeconds give the observation count and total
	// (their ratio is the mean).
	Count      uint64  `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	// Buckets are cumulative: each entry counts observations at or below
	// its bound. The implicit +Inf bucket always equals Count and is
	// omitted.
	Buckets []HistogramBucket `json:"buckets"`
}

// HistogramBucket is one cumulative bucket: observations ≤ LE.
type HistogramBucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Snapshot exports the histogram with cumulative buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, SumSeconds: h.sum}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.buckets[i]
		s.Buckets = append(s.Buckets, HistogramBucket{LE: b, Count: cum})
	}
	return s
}

// Labels are one metric series' label set. Rendered sorted by key, so
// two semantically equal sets produce one series.
type Labels map[string]string

// series is one (labelset, value source) pair inside a family.
type series struct {
	labels Labels
	kind   seriesKind
	c      *Counter
	h      *Histogram
	fn     func() float64
}

type seriesKind int

const (
	kindCounter seriesKind = iota
	kindHistogram
	kindFunc // gauge or counter computed at scrape time
)

// family is one metric name: a help string, a type, and its series.
type family struct {
	name, help, typ string
	series          []*series
	byLabels        map[string]*series // rendered label set → series
	// setLabel/setFn render a dynamic labeled set (e.g. fault tallies
	// keyed by site) at scrape time.
	setLabel string
	setFn    func() map[string]uint64
}

// Registry holds metric families and renders them as Prometheus text.
// Register at construction time; scrape with WriteText. All methods are
// safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) familyFor(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabels: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f
}

// seriesFor finds the series name{labels}, registering mk() there on
// first use, so independent subsystems can share a series safely and a
// labelled series can be looked up per observation.
func (r *Registry) seriesFor(name, help, typ string, labels Labels, mk func() *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, typ)
	key := renderLabels(labels)
	s, ok := f.byLabels[key]
	if !ok {
		s = mk()
		s.labels = labels
		f.series = append(f.series, s)
		f.byLabels[key] = s
	}
	return s
}

// Counter registers (or finds) the counter series name{labels}.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.seriesFor(name, help, "counter", labels, func() *series {
		return &series{kind: kindCounter, c: &Counter{}}
	}).c
}

// Histogram registers (or finds) the histogram series name{labels} over
// the given bounds (nil: DefaultLatencyBounds).
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	return r.seriesFor(name, help, "histogram", labels, func() *series {
		return &series{kind: kindHistogram, h: NewHistogram(bounds)}
	}).h
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.seriesFor(name, help, "gauge", labels, func() *series { return &series{kind: kindFunc, fn: fn} })
}

// CounterFunc registers a counter whose value lives elsewhere (an
// existing atomic) and is read at scrape time. The source must be
// monotone for the counter type to be honest.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.seriesFor(name, help, "counter", labels, func() *series {
		return &series{kind: kindFunc, fn: func() float64 { return float64(fn()) }}
	})
}

// CounterSetFunc registers a counter family whose series are dynamic: at
// scrape time fn's map is rendered as one series per key, labeled
// labelKey=<key>. Used for tallies keyed by an open set (fault sites,
// breaker opens per backend).
func (r *Registry) CounterSetFunc(name, help, labelKey string, fn func() map[string]uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, "counter")
	f.setLabel, f.setFn = labelKey, fn
}

// A Sample is one series value as the exposition format writes it. A
// histogram contributes one sample per cumulative bucket (name_bucket,
// labelled le, "+Inf" last) plus name_sum and name_count.
type Sample struct {
	Name   string
	Labels Labels
	Value  float64
}

// ID is the sample's series identity, name{labels} with the labels
// sorted: the text before the value on its exposition line.
func (s Sample) ID() string { return s.Name + renderLabels(s.Labels) }

// Samples reads every registered series in exposition order: families
// in registration order, then each family's series sorted by identity
// (a histogram's samples keep bucket order).
func (r *Registry) Samples() []Sample {
	var out []Sample
	for _, f := range r.snapshot() {
		out = append(out, f.samples()...)
	}
	return out
}

// WriteText renders every registered family in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE headers, one line
// per sample as Samples orders them, histograms as cumulative
// _bucket/_sum/_count lines. The output is stable enough to golden-test.
func (r *Registry) WriteText(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.snapshot() {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples() {
			b.WriteString(s.ID())
			b.WriteByte(' ')
			if f.typ == "histogram" && !strings.HasSuffix(s.Name, "_sum") {
				b.WriteString(strconv.FormatUint(uint64(s.Value), 10)) // bucket and total counts
			} else {
				b.WriteString(formatValue(s.Value))
			}
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// snapshot copies the families in registration order, so a scrape
// reads values without holding the registry lock.
func (r *Registry) snapshot() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]family, len(r.order))
	for i, name := range r.order {
		out[i] = *r.families[name]
	}
	return out
}

// samples reads one family's series: plain series sorted by identity
// so label permutations stay stable, histograms in bucket order.
func (f *family) samples() []Sample {
	var out []Sample
	for _, s := range f.series {
		switch s.kind {
		case kindCounter:
			out = append(out, Sample{f.name, s.labels, float64(s.c.Value())})
		case kindFunc:
			out = append(out, Sample{f.name, s.labels, s.fn()})
		case kindHistogram:
			out = append(out, histogramSamples(f.name, s.labels, s.h.Snapshot())...)
		}
	}
	if f.setFn != nil {
		for k, v := range f.setFn() {
			out = append(out, Sample{f.name, Labels{f.setLabel: k}, float64(v)})
		}
	}
	if f.typ != "histogram" {
		sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	}
	return out
}

// histogramSamples expands one histogram series into its cumulative
// _bucket samples (including the mandatory le="+Inf"), _sum, and
// _count.
func histogramSamples(name string, labels Labels, s HistogramSnapshot) []Sample {
	out := make([]Sample, 0, len(s.Buckets)+3)
	for _, bk := range s.Buckets {
		out = append(out, Sample{name + "_bucket", withLabel(labels, "le", formatValue(bk.LE)), float64(bk.Count)})
	}
	return append(out,
		Sample{name + "_bucket", withLabel(labels, "le", "+Inf"), float64(s.Count)},
		Sample{name + "_sum", labels, s.SumSeconds},
		Sample{name + "_count", labels, float64(s.Count)})
}

func withLabel(labels Labels, k, v string) Labels {
	out := make(Labels, len(labels)+1)
	for lk, lv := range labels {
		out[lk] = lv
	}
	out[k] = v
	return out
}

// renderLabels renders {k="v",...} with keys sorted and values escaped;
// empty label sets render as "".
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a help string: backslash and newline (quotes are
// legal in help text).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
