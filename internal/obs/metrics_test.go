package obs

import (
	"reflect"
	"strings"
	"testing"
)

// TestWriteTextGolden pins the exposition format byte for byte:
// HELP/TYPE headers, sorted labels, escaping, and cumulative histogram
// buckets with the mandatory +Inf. If this golden moves, every scraper
// of /metrics sees the change — edit deliberately.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("graphpipe_requests_total", "Requests served.", Labels{"route": "plan"})
	c.Add(3)
	r.Counter("graphpipe_requests_total", "Requests served.", Labels{"route": "eval"}).Inc()
	r.GaugeFunc("graphpipe_in_flight", "Requests in flight.", nil, func() float64 { return 2 })
	r.CounterFunc("graphpipe_evictions_total", "Cache evictions.", Labels{"tier": "memory"},
		func() uint64 { return 7 })
	h := r.Histogram("graphpipe_latency_seconds", "Request latency.", Labels{"route": "plan"},
		[]float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99) // lands in +Inf only
	r.Counter("graphpipe_weird_total", "Escaping check.", Labels{"path": `a\b"c` + "\nd"}).Inc()
	r.CounterSetFunc("graphpipe_faults_injected_total", "Injected faults by site.", "site",
		func() map[string]uint64 { return map[string]uint64{"disk/err": 2, "peer/latency": 5} })

	want := strings.Join([]string{
		`# HELP graphpipe_requests_total Requests served.`,
		`# TYPE graphpipe_requests_total counter`,
		`graphpipe_requests_total{route="eval"} 1`,
		`graphpipe_requests_total{route="plan"} 3`,
		`# HELP graphpipe_in_flight Requests in flight.`,
		`# TYPE graphpipe_in_flight gauge`,
		`graphpipe_in_flight 2`,
		`# HELP graphpipe_evictions_total Cache evictions.`,
		`# TYPE graphpipe_evictions_total counter`,
		`graphpipe_evictions_total{tier="memory"} 7`,
		`# HELP graphpipe_latency_seconds Request latency.`,
		`# TYPE graphpipe_latency_seconds histogram`,
		`graphpipe_latency_seconds_bucket{le="0.1",route="plan"} 2`,
		`graphpipe_latency_seconds_bucket{le="1",route="plan"} 3`,
		`graphpipe_latency_seconds_bucket{le="10",route="plan"} 3`,
		`graphpipe_latency_seconds_bucket{le="+Inf",route="plan"} 4`,
		`graphpipe_latency_seconds_sum{route="plan"} 99.6`,
		`graphpipe_latency_seconds_count{route="plan"} 4`,
		`# HELP graphpipe_weird_total Escaping check.`,
		`# TYPE graphpipe_weird_total counter`,
		`graphpipe_weird_total{path="a\\b\"c\nd"} 1`,
		`# HELP graphpipe_faults_injected_total Injected faults by site.`,
		`# TYPE graphpipe_faults_injected_total counter`,
		`graphpipe_faults_injected_total{site="disk/err"} 2`,
		`graphpipe_faults_injected_total{site="peer/latency"} 5`,
		``,
	}, "\n")

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("exposition output drifted:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("graphpipe_a_total", "a", nil).Add(41)
	r.Counter("graphpipe_b_total", "b", Labels{"k": "v w"}).Add(5)
	h := r.Histogram("graphpipe_h_seconds", "h", nil, []float64{1})
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText on own output: %v", err)
	}
	for key, want := range map[string]float64{
		"graphpipe_a_total":                     41,
		`graphpipe_b_total{k="v w"}`:            5,
		`graphpipe_h_seconds_bucket{le="1"}`:    1,
		`graphpipe_h_seconds_bucket{le="+Inf"}`: 2,
		"graphpipe_h_seconds_count":             2,
		"graphpipe_h_seconds_sum":               2.5,
	} {
		if got[key] != want {
			t.Errorf("%s = %v, want %v", key, got[key], want)
		}
	}
}

func TestCounterReregistrationSharesSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("graphpipe_x_total", "x", Labels{"l": "1"})
	b := r.Counter("graphpipe_x_total", "x", Labels{"l": "1"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared series not shared: %d", b.Value())
	}
}

func TestHistogramSnapshotCumulative(t *testing.T) {
	h := NewHistogram(nil) // DefaultLatencyBounds
	for _, v := range []float64{0.0005, 0.003, 0.003, 0.2, 400} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || len(s.Buckets) != len(DefaultLatencyBounds) {
		t.Fatalf("count %d buckets %d", s.Count, len(s.Buckets))
	}
	var prev uint64
	for _, b := range s.Buckets {
		if b.Count < prev {
			t.Fatalf("buckets not cumulative at le=%v", b.LE)
		}
		prev = b.Count
	}
	// 400 lands past the last bound: cumulative max stays below Count.
	if last := s.Buckets[len(s.Buckets)-1]; last.Count != 4 {
		t.Fatalf("last bucket %d, want 4 (one observation in +Inf)", last.Count)
	}
}

// TestParseSamplesInvertsSamples pins that a scraped /metrics body reads
// back as exactly the samples the registry holds — labels unescaped,
// histogram buckets in order — so a remote scrape and a local read feed
// the same renderers.
func TestParseSamplesInvertsSamples(t *testing.T) {
	r := NewRegistry()
	r.Counter("graphpipe_weird_total", "w", Labels{"path": `a\b"c` + "\nd", "tier": "x,y=z"}).Add(3)
	r.GaugeFunc("graphpipe_g", "g", nil, func() float64 { return 0.25 })
	h := r.Histogram("graphpipe_h_seconds", "h", Labels{"planner": "p"}, []float64{0.5, 1})
	h.Observe(0.1)
	h.Observe(2)
	r.CounterSetFunc("graphpipe_faults_injected_total", "f", "site",
		func() map[string]uint64 { return map[string]uint64{"disk/err": 2} })

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSamples(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if want := r.Samples(); !reflect.DeepEqual(got, want) {
		t.Errorf("ParseSamples(WriteText) =\n%v\nwant Samples() =\n%v", got, want)
	}
	for _, bad := range []string{`x{a="1} 2`, `x{a=1} 2`, `x{a="1"}2`, `9x 1`, `x one`} {
		if _, err := ParseSamples(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseSamples(%q) accepted a malformed line", bad)
		}
	}
}

// TestSumAndRegroup pins the fleet arithmetic over two registries'
// samples concatenated: Sum reads one series or a whole family, and
// Histograms / Tallies regroup labelled families by one label, each
// adding the series the registries share.
func TestSumAndRegroup(t *testing.T) {
	shard := func(hits, opens uint64, obs ...float64) []Sample {
		r := NewRegistry()
		r.Counter("graphpipe_cache_hits_total", "h", Labels{"tier": "memory"}).Add(hits)
		r.Counter("graphpipe_cache_hits_total", "h", Labels{"tier": "disk"}).Add(1)
		r.CounterSetFunc("graphpipe_opens_total", "o", "backend",
			func() map[string]uint64 { return map[string]uint64{"a": opens, "b": 1} })
		h := r.Histogram("graphpipe_h_seconds", "h", Labels{"planner": "p"}, []float64{1, 10})
		for _, v := range obs {
			h.Observe(v)
		}
		return r.Samples()
	}
	sum := append(shard(3, 2, 0.5, 20), shard(4, 5, 5)...)
	for series, want := range map[string]float64{
		`graphpipe_cache_hits_total{tier="memory"}`: 7,
		"graphpipe_cache_hits_total":                9,
		"graphpipe_opens_total":                     9,
		`graphpipe_opens_total{backend="b"}`:        2,
		"graphpipe_absent_total":                    0,
	} {
		if got := Sum(sum, series); got != want {
			t.Errorf("Sum(%s) = %v, want %v", series, got, want)
		}
	}
	want := HistogramSnapshot{Count: 3, SumSeconds: 25.5, Buckets: []HistogramBucket{{LE: 1, Count: 1}, {LE: 10, Count: 2}}}
	if got := Histograms(sum, "graphpipe_h_seconds", "planner"); !reflect.DeepEqual(got, map[string]HistogramSnapshot{"p": want}) {
		t.Errorf("Histograms = %+v, want p: %+v", got, want)
	}
	if got := Tallies(sum, "graphpipe_opens_total", "backend"); !reflect.DeepEqual(got, map[string]uint64{"a": 7, "b": 2}) {
		t.Errorf("Tallies = %v, want a:7 b:2", got)
	}
}
