package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle two for an even
// count). xs must not be empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailBeyond is how many samples must lie beyond the reported tail. It is
// ten times the usual ten: on a small shared host the few dozen slowest of
// a run's ~30k fleet requests follow the host's scheduling stalls, and a
// p99.9 over them moves by a quarter between runs of the same code.
const tailBeyond = 100

// tail returns the highest percentile of xs on tailLadder that has at
// least tailBeyond samples beyond it (nearest-rank), with a note naming it
// and the number beyond. When none has, the slowest sample is returned.
func tail(xs []float64) (float64, string) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailLadder {
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if beyond := n - 1 - idx; beyond >= tailBeyond {
			return s[idx], fmt.Sprintf("p%g, %d beyond", p, beyond)
		}
	}
	return s[n-1], fmt.Sprintf("max (no percentile has %d samples beyond)", tailBeyond)
}

// geomean returns the geometric mean of positive xs. It sums in sorted
// order, so the same values give the same bits in any input order.
func geomean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// latencyMetrics turns per-operation latencies measured over window into
// the shared end-to-end metrics: median, tail and completed ops per
// second.
func latencyMetrics(m map[string]metric, lat []time.Duration, window time.Duration) {
	xs := seconds(lat)
	t, note := tail(xs)
	m["op_p50_s"] = metric{Value: median(xs), Unit: "s", n: len(xs)}
	m["op_tail_s"] = metric{Value: t, Unit: "s", n: len(xs), note: note}
	m["ops_per_s"] = metric{Value: float64(len(xs)) / window.Seconds(), Unit: "1/s", n: len(xs)}
}

// op is one timed operation of a workload. It returns the operation's
// duration, or a failed-check result, or an error; a nil tracer runs it
// untraced.
type op func(tr *tracer) (time.Duration, *result, error)

// repeat runs o until budget is spent, at least once, and returns each
// run's duration and the wall time of the whole window.
func repeat(ctx context.Context, budget time.Duration, o op, tr *tracer) ([]time.Duration, time.Duration, *result, error) {
	var lat []time.Duration
	begin := time.Now()
	for len(lat) == 0 || time.Since(begin) < budget {
		if err := ctx.Err(); err != nil {
			return nil, 0, nil, err
		}
		d, bad, err := o(tr)
		if bad != nil || err != nil {
			return nil, 0, bad, err
		}
		lat = append(lat, d)
	}
	return lat, time.Since(begin), nil, nil
}
