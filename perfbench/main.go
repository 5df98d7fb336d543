// Command perfbench is the repository's benchmark: one entry point that
// runs a named workload for a fixed time, checks every output it
// produces, and prints the workload's metrics as one JSON line.
//
//	perfbench --workload paper-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (README.md lists them
// with the per-workload meaning of each); with --trace 1 it runs the same
// workload with counting and timing wrappers around each layer and
// reports per-layer self times and counts instead. The last line of
// standard output is always the result object; a failed output check
// prints correct=false and exits 1.
//
// perfbench is normally started through run.sh, which builds it and the
// daemons it drives from the surrounding source tree.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	_ "graphpipe/internal/eval/all"
	_ "graphpipe/internal/planner/all"
)

// env is what every workload receives: its seed, its measuring budget,
// whether to trace, and where the built daemons and scratch space live.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	binDir  string // built graphpiped, graphpipe-lb and loaddriver
	workDir string // per-run scratch directory, removed on exit
}

// metric is one reported value. n is the sample count behind it; it is
// printed on the summary lines, not in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checkFailed reports a failed output check: the run stops and its result
// says correct=false. attempted and failed are the operations so far.
func checkFailed(attempted, failed int, format string, args ...any) *result {
	fmt.Fprintf(os.Stderr, "perfbench: output check failed: "+format+"\n", args...)
	return &result{Correct: false, Attempted: max(1, attempted), Failed: max(1, failed), Metrics: map[string]metric{}}
}

var workloads = map[string]func(context.Context, env) (*result, error){
	"paper-cold":     runPaperCold,
	"elastic-replan": runElasticReplan,
	"fleet-zipf":     runFleetZipf,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload name: paper-cold | elastic-replan | fleet-zipf")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "measuring budget in seconds")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		binDir   = flag.String("bin", "", "directory holding the built graphpiped, graphpipe-lb and loaddriver")
		buildDir = flag.String("build-dir", ".bench_build", "benchmark state directory (lock, run records, scratch)")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %v --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	state, err := filepath.Abs(*buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(state, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	unlock, err := lockMachine(filepath.Join(state, "perfbench.lock"), 60*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer unlock()

	work, err := os.MkdirTemp(state, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rec := newRecord(root, *workload, *seed, *seconds, *trace == 1)
	e := env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		binDir:  *binDir,
		workDir: work,
	}
	res, err := fn(ctx, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec.finish(res)
	rec.save(filepath.Join(state, "runs.jsonl"))
	printSummary(*workload, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printSummary prints one human-readable line per metric, with its unit
// and sample count, ahead of the result object.
func printSummary(workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("%s: correct=%v attempted=%d failed=%d failed_share=%.4g\n",
		workload, res.Correct, res.Attempted, res.Failed, share)
	for _, n := range names {
		m := res.Metrics[n]
		line := fmt.Sprintf("%s: %-28s %14.6g %-10s n=%d", workload, n, m.Value, m.Unit, m.n)
		if m.note != "" {
			line += "  " + m.note
		}
		fmt.Println(line)
	}
}
