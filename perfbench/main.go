// Command perfbench is the repository benchmark. It runs one workload for a
// fixed time, checks every answer outside the timed region, and prints the
// result as one JSON object on the last line of standard output.
//
//	perfbench -workload solve-dense|solve-sparse|serve-read|serve-write
//	    -seed N -seconds S -trace 0|1 [-out .bench_build] [-tdbserve path]
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 a
// separate traced run times calls into each layer and reports the per-layer
// metrics. run.sh builds this command and tdbserve from source and runs it;
// README.md explains the workloads and how to read a traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    float64
	tdbserve string // path of the tdbserve binary (serve workloads)
	out      string // directory for scratch files and span dumps
	work     string // this run's scratch directory, removed at exit
}

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, on every workload.
// Each workload times one operation type: a solve (solve-*), a /v1/cycle
// query (serve-read) or a waited 64-edge write batch (serve-write). Tail
// percentiles and throughput are printed on the "metric" lines but are not
// in the result: on a shared two-CPU machine their run-to-run spread is
// wider than any bound a gate could use (README.md, "Noise").
var endToEnd = []metricDef{
	{"setup_s", "s"},           // launch to first timed operation, median of several set-ups
	{"op_ms", "ms"},            // median latency of the workload's operation
	{"cover_size", "vertices"}, // exact for a seed
	{"rss_mb", "MiB"},          // resident set of the process running the program
	{"restart_s", "s"},         // launch on persisted state to first correct answer
}

// report accumulates one run's outcome.
type report struct {
	env       environment
	attempted int64
	failed    int64
	failures  map[string]int64 // failed operations by kind
	wrong     []string         // answer-check failures
	metrics   map[string]metric
	detail    []string // per-workload metrics under the names operators use
}

func newReport(env environment) *report {
	return &report{env: env, failures: map[string]int64{}, metrics: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// note records a metric for the human-readable part of the output.
func (r *report) note(name string, v float64, unit, how string) {
	r.detail = append(r.detail, fmt.Sprintf("%s %s %.6g %s  (%s)", r.env.Workload, name, v, unit, how))
}

// fail counts one failed operation.
func (r *report) fail(kind string) {
	r.failed++
	r.failures[kind]++
}

// wrongAnswer records an answer-check failure; it also counts as a failed
// operation.
func (r *report) wrongAnswer(err error) {
	r.fail("wrong_answer")
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, err.Error())
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: solve-dense, solve-sparse, serve-read or serve-write")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured time of the run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 0.1, "dataset scale factor")
	fs.StringVar(&cfg.tdbserve, "tdbserve", "", "tdbserve binary (required by the serve workloads)")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	spec, ok := specFor(cfg.workload)
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) || cfg.scale <= 0 || cfg.scale > 1 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d, scale %g)\n",
			cfg.workload, cfg.seconds, trace, cfg.scale)
		return 2
	}
	if strings.HasPrefix(cfg.workload, "serve-") && cfg.tdbserve == "" {
		fmt.Fprintln(stderr, "perfbench: serve workloads need -tdbserve")
		return 2
	}
	var err error
	if cfg.out, err = filepath.Abs(cfg.out); err == nil {
		cfg.work = filepath.Join(cfg.out, fmt.Sprintf("work-%d", os.Getpid()))
		err = os.MkdirAll(cfg.work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	env := captureEnv()
	env.Workload, env.Seed, env.Seconds, env.Trace = cfg.workload, cfg.seed, cfg.seconds, cfg.trace
	env.Dataset, env.Scale, env.Fsync = spec.dataset, cfg.scale, "none"
	rep := newReport(env)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(time.Now())
	}

	steal0, total0 := cpuTicks()
	ctx := context.Background()
	switch cfg.workload {
	case "solve-dense", "solve-sparse":
		err = runSolve(ctx, cfg, spec, rep, tr)
	case "serve-read":
		err = runServeRead(ctx, cfg, spec, rep, tr)
	case "serve-write":
		err = runServeWrite(ctx, cfg, spec, rep, tr)
	}
	rep.env.LoadAfter = loadAvg()
	if steal1, total1 := cpuTicks(); total1 > total0 {
		rep.env.StealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %s (%d spans)\n", path, len(tr.spans))
	}
	if missing := missingMetrics(cfg.trace, rep.metrics); len(missing) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s did not report %v\n", cfg.workload, missing)
		return 1
	}
	return printReport(stdout, stderr, rep)
}

// missingMetrics lists the metrics of the run's mode that were not set.
func missingMetrics(traced bool, got map[string]metric) []string {
	want := endToEnd
	if traced {
		want = perLayer
	}
	var missing []string
	for _, d := range want {
		if m, ok := got[d.name]; !ok || m.Unit != d.unit {
			missing = append(missing, d.name)
		}
	}
	return missing
}

// printReport writes the environment, the per-workload metrics, failure
// accounting and, last, the result object. It returns the exit code: 1 when
// an answer check failed.
func printReport(stdout, stderr io.Writer, rep *report) int {
	envJSON, _ := json.Marshal(rep.env) // plain struct: cannot fail
	fmt.Fprintf(stdout, "env %s\n", envJSON)
	for _, line := range rep.detail {
		fmt.Fprintln(stdout, "metric", line)
	}
	kinds := make([]string, 0, len(rep.failures))
	for k := range rep.failures {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(stdout, "failures %s attempted=%d failed=%d", rep.env.Workload, rep.attempted, rep.failed)
	for _, k := range kinds {
		fmt.Fprintf(stdout, " %s=%d", k, rep.failures[k])
	}
	fmt.Fprintln(stdout)
	for _, w := range rep.wrong {
		fmt.Fprintln(stderr, "perfbench: wrong answer:", w)
	}
	correct := len(rep.wrong) == 0
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(rep.attempted, 1), rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !correct {
		return 1
	}
	return 0
}
