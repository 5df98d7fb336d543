package experiments

import (
	"fmt"
	"time"

	"graphpipe/internal/models"
	"graphpipe/internal/synth"
	"graphpipe/internal/trace"
)

// Fig6Row is one device-count point of Figure 6: throughput of the three
// systems on one model.
type Fig6Row struct {
	Devices   int
	MiniBatch int
	Outcomes  map[System]Outcome
}

// Fig6Result holds one sub-figure (6a/6b/6c).
type Fig6Result struct {
	Model string
	Rows  []Fig6Row
}

// fig6MiniBatch resolves one device count's mini-batch: the paper's
// Appendix A.2 pairing for the paper models, the proportional default
// for synth specs.
func fig6MiniBatch(model string, devs int) (int, error) {
	if synth.IsSpec(model) {
		return synth.DefaultMiniBatch(devs), nil
	}
	return models.PaperMiniBatch(model, devs)
}

// Fig6 regenerates one sub-figure of Figure 6: end-to-end training
// throughput versus device count, with the paper's per-device-count
// mini-batch sizes (Appendix A.2). Piper's ✗ entries surface as Failed
// outcomes, matching the paper's missing data points.
func Fig6(model string, systems []System) (*Fig6Result, error) {
	// The graph is device-independent, so one build serves the whole
	// sweep; synth: specs let the smoke tests run the sweep on a tiny
	// generated model.
	g, _, err := models.Build(model, 0, 1)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{Model: model}
	var jobs []Job
	for _, devs := range DeviceCounts() {
		mb, err := fig6MiniBatch(model, devs)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig6Row{Devices: devs, MiniBatch: mb, Outcomes: map[System]Outcome{}})
		for _, sys := range systems {
			// Piper gets a bounded wall-clock budget per point; points it
			// cannot finish print ✗ — the paper's "missing data points
			// indicate that no training strategy can be found within
			// reasonable timeframes".
			jobs = append(jobs, Job{System: sys, Graph: g, Devices: devs, MiniBatch: mb,
				Opts: RunOptions{PiperTimeout: 90 * time.Second}})
		}
	}
	for i, o := range RunGrid(jobs) {
		res.Rows[i/len(systems)].Outcomes[o.System] = o
	}
	return res, nil
}

// CSV renders the sub-figure as (devices, mini-batch, one column per
// system, GraphPipe/PipeDream speedup).
func (r *Fig6Result) CSV(systems []System) *trace.CSV {
	header := []string{"devices", "mini_batch"}
	for _, s := range systems {
		header = append(header, string(s)+"_samples_per_s")
	}
	header = append(header, "graphpipe_over_pipedream")
	c := trace.NewCSV(header...)
	for _, row := range r.Rows {
		vals := []interface{}{row.Devices, row.MiniBatch}
		for _, s := range systems {
			vals = append(vals, FmtThroughput(row.Outcomes[s]))
		}
		gp, pd := row.Outcomes[GraphPipe], row.Outcomes[PipeDream]
		if !gp.Failed && !pd.Failed && pd.Throughput > 0 {
			vals = append(vals, fmt.Sprintf("%.2f", gp.Throughput/pd.Throughput))
		} else {
			vals = append(vals, "-")
		}
		c.Add(vals...)
	}
	return c
}
