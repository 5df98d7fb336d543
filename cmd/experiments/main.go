// Command experiments regenerates the paper's tables and figures (§7).
//
// Usage:
//
//	experiments all                 # everything (slow: includes Piper)
//	experiments fig6 [model]        # end-to-end throughput (6a/6b/6c)
//	experiments table1              # planner search times
//	experiments fig7-branches       # throughput vs branch count
//	experiments fig7-micro          # throughput vs fixed micro-batch size
//	experiments fig8                # case study schedules
//	experiments fig9                # ablation
//	experiments a3                  # sequential-model parity
//	experiments planners            # list the registered planners
//
// Each experiment prints a CSV table (and, for fig8, the pipeline gantt
// charts); README's cmd/experiments section maps each subcommand to its
// paper artifact. The experiment grids
// resolve planners through the graphpipe/internal/planner registry and
// fan out across CPUs with deterministic row ordering.
package main

import (
	"fmt"
	"os"

	"graphpipe/internal/experiments"
	"graphpipe/internal/planner"
)

func main() {
	what := "all"
	if len(os.Args) > 1 {
		what = os.Args[1]
	}
	var err error
	switch what {
	case "all":
		err = runAll()
	case "fig6":
		model := ""
		if len(os.Args) > 2 {
			model = os.Args[2]
		}
		err = runFig6(model)
	case "table1":
		err = runTable1()
	case "fig7-branches":
		err = runFig7Branches()
	case "fig7-micro":
		err = runFig7Micro()
	case "fig8":
		err = runFig8()
	case "fig9":
		err = runFig9()
	case "a3":
		err = runA3()
	case "planners":
		for _, name := range planner.Names() {
			fmt.Println(name)
		}
	default:
		err = fmt.Errorf("unknown experiment %q", what)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func runAll() error {
	for _, f := range []func() error{
		func() error { return runFig6("") },
		runTable1,
		runFig7Branches,
		runFig7Micro,
		runFig8,
		runFig9,
		runA3,
	} {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

func runFig6(model string) error {
	modelsToRun := []string{"mmt", "dlrm", "candle-uno"}
	if model != "" {
		modelsToRun = []string{model}
	}
	for _, m := range modelsToRun {
		fmt.Printf("== Figure 6: end-to-end throughput, %s ==\n", m)
		res, err := experiments.Fig6(m, experiments.Systems)
		if err != nil {
			return err
		}
		fmt.Print(res.CSV(experiments.Systems).String())
		fmt.Println()
	}
	return nil
}

func runTable1() error {
	fmt.Println("== Table 1: planner search times (seconds) ==")
	res, err := experiments.Table1(experiments.Systems)
	if err != nil {
		return err
	}
	fmt.Print(res.CSV(experiments.Systems).String())
	fmt.Println()
	return nil
}

func runFig7Branches() error {
	fmt.Println("== Figure 7 (left): throughput vs parallel branches, CANDLE-Uno ==")
	rows, err := experiments.Fig7Branches(nil, nil, 0)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Fig7BranchesCSV(rows).String())
	fmt.Println()
	return nil
}

func runFig7Micro() error {
	fmt.Println("== Figure 7 (right): throughput vs fixed micro-batch size, 4-branch MMT, 8 GPUs, B=128 ==")
	rows, err := experiments.Fig7MicroBatch(nil)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Fig7MicroBatchCSV(rows).String())
	fmt.Println()
	return nil
}

func runFig8() error {
	fmt.Println("== Figure 8 / §7.5: case study ==")
	res, err := experiments.CaseStudy(0)
	if err != nil {
		return err
	}
	fmt.Print(res.Report())
	fmt.Println()
	return nil
}

func runFig9() error {
	fmt.Println("== Figure 9: ablation at 32 GPUs ==")
	rows, err := experiments.Fig9()
	if err != nil {
		return err
	}
	fmt.Print(experiments.Fig9CSV(rows).String())
	fmt.Println()
	return nil
}

func runA3() error {
	fmt.Println("== Appendix A.3: sequential Transformer parity ==")
	rows, err := experiments.A3Sequential(experiments.Systems)
	if err != nil {
		return err
	}
	fmt.Print(experiments.A3CSV(rows, experiments.Systems).String())
	fmt.Println()
	return nil
}
