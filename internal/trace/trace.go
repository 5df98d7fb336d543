// Package trace renders pipeline execution timelines as ASCII diagrams
// (the Figure 8 style of the paper) and emits CSV series for the
// evaluation figures.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"graphpipe/internal/eval"
	"graphpipe/internal/schedule"
	"graphpipe/internal/strategy"
)

// Gantt renders an evaluated timeline as one row per stage, `width`
// characters wide. Forward passes print the micro-batch index, backward
// passes print '·' followed by the index in brackets when space permits;
// idle time prints '-'. It is a debugging and documentation aid, not a
// parser-stable format. Reports from any registered evaluation backend
// render identically: the timeline is the shared eval.Report currency.
func Gantt(st *strategy.Strategy, res *eval.Report, width int) string {
	if width <= 0 {
		width = 100
	}
	var tmax float64
	for _, tr := range res.Timeline {
		if tr.End > tmax {
			tmax = tr.End
		}
	}
	if tmax == 0 {
		return ""
	}
	scale := float64(width) / tmax

	rows := make([][]byte, len(st.Stages))
	for i := range rows {
		rows[i] = []byte(strings.Repeat("-", width))
	}
	// Paint later tasks over earlier ones in start order for stable
	// output.
	recs := append([]eval.TaskRecord(nil), res.Timeline...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	for _, tr := range recs {
		lo := int(tr.Start * scale)
		hi := int(tr.End * scale)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		label := fmt.Sprintf("F%d", tr.Task.Index)
		fill := byte('F')
		if tr.Task.Kind == schedule.Backward {
			label = fmt.Sprintf("B%d", tr.Task.Index)
			fill = 'B'
		}
		row := rows[tr.Stage]
		for x := lo; x < hi; x++ {
			row[x] = fill
		}
		if hi-lo >= len(label) {
			copy(row[lo:], label)
		}
	}
	var sb strings.Builder
	for i, row := range rows {
		fmt.Fprintf(&sb, "S%-3d |%s|\n", i, row)
	}
	fmt.Fprintf(&sb, "      0%s%.3gs\n", strings.Repeat(" ", width-8), tmax)
	return sb.String()
}

// Summary renders a one-paragraph description of a strategy and its
// evaluated result: stage count, pipeline depth, chosen micro-batch size,
// throughput, and peak memory — the quantities §7.5's case study compares.
func Summary(st *strategy.Strategy, res *eval.Report) string {
	peakMem := res.PeakMemory()
	maxIF := res.MaxInFlightSamples()
	microBatches := map[int]bool{}
	for i := range st.Stages {
		microBatches[st.Stages[i].Config.MicroBatch] = true
	}
	var bs []int
	for b := range microBatches {
		bs = append(bs, b)
	}
	sort.Ints(bs)
	return fmt.Sprintf(
		"%s: %d stages, depth %d, micro-batch %v, iteration %.4gms, throughput %.4g samples/s, peak memory %.3g GB, max in-flight %d samples",
		st.Planner, st.NumStages(), st.Depth(), bs,
		res.IterationTime*1e3, res.Throughput, peakMem/1e9, maxIF)
}

// CSV renders rows of (x, series...) values with a header, the format the
// experiment drivers emit for each figure.
type CSV struct {
	Header []string
	Rows   [][]string
}

// NewCSV creates a table with the given column names.
func NewCSV(header ...string) *CSV { return &CSV{Header: header} }

// Add appends a row; values are formatted with %v.
func (c *CSV) Add(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.6g", x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	c.Rows = append(c.Rows, row)
}

// String renders the table as comma-separated lines.
func (c *CSV) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(c.Header, ","))
	sb.WriteByte('\n')
	for _, row := range c.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavored markdown table, used by
// `graphpipe compare`.
func (c *CSV) Markdown() string {
	var sb strings.Builder
	sb.WriteString("| " + strings.Join(c.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(c.Header)) + "\n")
	for _, row := range c.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return sb.String()
}
