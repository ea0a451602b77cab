// Command tdbbench regenerates the paper's evaluation tables and figures
// (see DESIGN.md for the experiment index).
//
// Usage:
//
//	tdbbench -exp table3                 # one experiment
//	tdbbench -exp all -scale 0.05       # the full evaluation
//	tdbbench -list                       # show available experiments
//	tdbbench -bench [-bench-out d]       # micro-bench suite -> BENCH_*.json
//	tdbbench -compare base.json new.json # diff two reports, gate on regressions
//
// Timed-out runs print INF, like the paper's plots. Absolute numbers are
// not comparable with the paper (synthetic stand-in data at reduced scale,
// Go vs C++); the shapes are.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tdb/internal/core"
	"tdb/internal/exp"
)

// runExperiment runs one experiment; tests replace it to inspect the
// configuration the flags produce.
var runExperiment = exp.Run

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tdbbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	def := exp.DefaultConfig()
	fs := flag.NewFlagSet("tdbbench", flag.ContinueOnError)
	var (
		expID      = fs.String("exp", "", "experiment ID, or all (required; see -list)")
		scale      = fs.Float64("scale", def.Scale, "dataset scale for single-k experiments")
		sweepScale = fs.Float64("sweep-scale", def.SweepScale, "dataset scale for k-sweep figures")
		largeEdges = fs.Int("large-edges", def.LargeEdges, "edge budget for the four large datasets")
		k          = fs.Int("k", def.K, "hop constraint for single-k experiments")
		kmin       = fs.Int("kmin", def.KMin, "sweep lower bound")
		kmax       = fs.Int("kmax", def.KMax, "sweep upper bound")
		timeout    = fs.Duration("timeout", def.Timeout, "per-run timeout (INF when exceeded)")
		orderName  = fs.String("order", "degree-asc", "top-down candidate order: natural, degree-asc, degree-desc, random")
		doVerify   = fs.Bool("verify", false, "verify every completed cover (slow)")
		quick      = fs.Bool("quick", false, "use the small CI configuration")
		list       = fs.Bool("list", false, "list experiments and exit")
		bench      = fs.Bool("bench", false, "run the micro-benchmark suite and write a BENCH_<timestamp>.json report")
		benchOut   = fs.String("bench-out", ".", "directory for the -bench report")
		benchTime  = fs.Duration("bench-time", 300*time.Millisecond, "per-benchmark time budget for -bench")
		compare    = fs.Bool("compare", false, "compare two BENCH_*.json reports (baseline new) and fail on regressions")
		threshold  = fs.Float64("threshold", 0.10, "fractional ns/op regression -compare tolerates per benchmark")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println("experiments:", strings.Join(exp.Experiments(), " "), "all")
		return nil
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants exactly two report paths (baseline new), got %d", fs.NArg())
		}
		return compareReports(fs.Arg(0), fs.Arg(1), *threshold, os.Stdout)
	}
	if *bench {
		path, err := runBenchSuite(*benchOut, *benchTime)
		if err != nil {
			return err
		}
		fmt.Println(path)
		return nil
	}
	if *expID == "" {
		fs.Usage()
		return fmt.Errorf("-exp is required")
	}

	cfg := exp.DefaultConfig()
	if *quick {
		cfg = exp.QuickConfig()
	}
	// Only the flags the user set override the chosen base configuration.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			cfg.Scale = *scale
		case "sweep-scale":
			cfg.SweepScale = *sweepScale
		case "large-edges":
			cfg.LargeEdges = *largeEdges
		case "k":
			cfg.K = *k
		case "kmin":
			cfg.KMin = *kmin
		case "kmax":
			cfg.KMax = *kmax
		case "timeout":
			cfg.Timeout = *timeout
		}
	})
	cfg.Verify = *doVerify
	cfg.Out = os.Stdout
	order, err := core.ParseOrder(*orderName)
	if err != nil {
		return err
	}
	if order == core.OrderWeighted {
		// The experiments have no cost input; fail before any generation.
		return fmt.Errorf("-order weighted is not supported by the experiment harness (want natural, degree-asc, degree-desc or random)")
	}
	cfg.Order = order

	start := time.Now()
	if _, err := runExperiment(*expID, cfg); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "total experiment time: %v\n", time.Since(start).Round(time.Second))
	return nil
}
