package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Sum totals the samples one series selector names: a bare name sums
// every label set of that name, name{labels} reads that one series. An
// absent series sums to 0. Like every reader here, Sum adds samples that
// repeat a series, so reading several registries' samples concatenated
// reads their series-by-series sum: exact for counters, additive gauges,
// and cumulative histogram buckets over one bucket ladder.
func Sum(samples []Sample, series string) float64 {
	name, _, labelled := strings.Cut(series, "{")
	var v float64
	for _, s := range samples {
		if s.Name == name && (!labelled || s.ID() == series) {
			v += s.Value
		}
	}
	return v
}

// Histograms regroups histogram family name by the value of one label:
// each series' _bucket, _sum, and _count samples become one
// HistogramSnapshot, buckets in first-seen order with +Inf folded into
// Count. Nil when the family has no samples.
func Histograms(samples []Sample, name, label string) map[string]HistogramSnapshot {
	var out map[string]HistogramSnapshot
	prefix := name + "_"
	for _, s := range samples {
		part, ok := strings.CutPrefix(s.Name, prefix)
		if !ok {
			continue
		}
		key := s.Labels[label]
		h := out[key]
		switch part {
		case "bucket":
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil || math.IsInf(le, 1) {
				continue
			}
			i := slices.IndexFunc(h.Buckets, func(b HistogramBucket) bool { return b.LE == le })
			if i < 0 {
				i = len(h.Buckets)
				h.Buckets = append(h.Buckets, HistogramBucket{LE: le})
			}
			h.Buckets[i].Count += uint64(s.Value)
		case "sum":
			h.SumSeconds += s.Value
		case "count":
			h.Count += uint64(s.Value)
		default:
			continue
		}
		if out == nil {
			out = make(map[string]HistogramSnapshot)
		}
		out[key] = h
	}
	return out
}

// Tallies regroups counter family name by the value of one label. Nil
// when the family has no samples.
func Tallies(samples []Sample, name, label string) map[string]uint64 {
	var out map[string]uint64
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		if out == nil {
			out = make(map[string]uint64)
		}
		out[s.Labels[label]] += uint64(s.Value)
	}
	return out
}

// A Column ties one scalar key of a JSON stats view to the series it
// reads, in Sum's selector syntax.
type Column struct{ Key, Series string }

// A View is an ordered table of JSON stats keys over metric series: the
// one place a /v1/stats key meets its /metrics series.
type View []Column

// Read sums each column's series out of samples; a column whose series
// is not registered reads 0.
func (v View) Read(samples []Sample) map[string]float64 {
	out := make(map[string]float64, len(v))
	for _, c := range v {
		out[c.Key] = Sum(samples, c.Series)
	}
	return out
}

// Marshal writes values as one JSON object, keys in column order,
// followed by the fields tail (a struct) marshals to.
func (v View) Marshal(values map[string]float64, tail any) ([]byte, error) {
	rest, err := json.Marshal(tail)
	if err != nil {
		return nil, err
	}
	b := []byte{'{'}
	for _, c := range v {
		b = fmt.Appendf(b, "%q:%s,", c.Key, strconv.FormatFloat(values[c.Key], 'f', -1, 64))
	}
	if len(rest) > 2 || len(v) == 0 {
		return append(b, rest[1:]...), nil
	}
	return append(b[:len(b)-1], '}'), nil
}

// Unmarshal is Marshal's inverse: the columns' keys into values,
// everything into tail.
func (v View) Unmarshal(data []byte, values *map[string]float64, tail any) error {
	var all map[string]any
	if err := json.Unmarshal(data, &all); err != nil {
		return err
	}
	*values = make(map[string]float64, len(v))
	for _, c := range v {
		(*values)[c.Key], _ = all[c.Key].(float64)
	}
	return json.Unmarshal(data, tail)
}
