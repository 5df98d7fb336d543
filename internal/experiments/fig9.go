package experiments

import (
	"fmt"
	"graphpipe/internal/models"

	"graphpipe/internal/trace"
)

// Fig9Row is one model's ablation at 32 GPUs: SPP (PipeDream), "Parallel"
// (GraphPipe's graph partitioning restricted to SPP's micro-batch size),
// and full GraphPipe (parallel stages + larger micro-batches).
type Fig9Row struct {
	Model    string
	SPP      Outcome
	Parallel Outcome
	Full     Outcome
	// ParallelSpeedup and FullSpeedup are normalized to SPP (the paper:
	// 1.12–1.40× and 1.25–1.61×).
	ParallelSpeedup float64
	FullSpeedup     float64
}

// Fig9 regenerates the ablation (§7.4) on the three evaluation models at
// 32 GPUs with the paper's mini-batch sizes. The SPP and full-GraphPipe
// arms of every model run as one grid; the "Parallel" arms follow in a
// second grid because each needs the micro-batch size its SPP arm chose.
func Fig9() ([]Fig9Row, error) {
	const devices = 32
	modelNames := []string{"mmt", "dlrm", "candle-uno"}
	rows := make([]Fig9Row, len(modelNames))
	var jobs []Job
	for i, m := range modelNames {
		g, _, err := models.Build(m, 0, devices)
		if err != nil {
			return nil, err
		}
		mb, err := models.PaperMiniBatch(m, devices)
		if err != nil {
			return nil, err
		}
		rows[i].Model = m
		jobs = append(jobs,
			Job{System: PipeDream, Graph: g, Devices: devices, MiniBatch: mb},
			Job{System: GraphPipe, Graph: g, Devices: devices, MiniBatch: mb})
	}
	outs := RunGrid(jobs)
	for i := range rows {
		rows[i].SPP = outs[2*i]
		rows[i].Full = outs[2*i+1]
		if rows[i].SPP.Failed {
			return nil, fmt.Errorf("experiments: fig9 SPP failed on %s: %v", rows[i].Model, rows[i].SPP.Err)
		}
	}
	// "Parallel": graph pipeline stages, but SPP's micro-batch size —
	// isolates concurrent stage execution from the memory-enabled
	// micro-batch increase. (It is not possible to evaluate the larger
	// micro-batch without the parallel stages, §7.4.)
	var arms []Job
	for i := range rows {
		arms = append(arms, Job{System: GraphPipe, Graph: jobs[2*i].Graph,
			Devices: devices, MiniBatch: jobs[2*i].MiniBatch,
			Opts: RunOptions{ForcedMicroBatch: rows[i].SPP.MicroBatch}})
	}
	for i, o := range RunGrid(arms) {
		rows[i].Parallel = o
		if !o.Failed {
			rows[i].ParallelSpeedup = o.Throughput / rows[i].SPP.Throughput
		}
		if !rows[i].Full.Failed {
			rows[i].FullSpeedup = rows[i].Full.Throughput / rows[i].SPP.Throughput
		}
	}
	return rows, nil
}

// Fig9CSV renders the ablation.
func Fig9CSV(rows []Fig9Row) *trace.CSV {
	c := trace.NewCSV("model", "spp_samples_per_s", "parallel_samples_per_s",
		"graphpipe_samples_per_s", "parallel_speedup", "graphpipe_speedup")
	for _, r := range rows {
		c.Add(r.Model, FmtThroughput(r.SPP), FmtThroughput(r.Parallel), FmtThroughput(r.Full),
			fmt.Sprintf("%.2f", r.ParallelSpeedup), fmt.Sprintf("%.2f", r.FullSpeedup))
	}
	return c
}
