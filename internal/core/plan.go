package core

import (
	"context"
	"fmt"
	"runtime"

	"tdb/internal/scc"
)

// This file is the planning layer of the unified solve surface: one entry
// point (Engine.Solve) accepts the full option set plus a worker
// budget, inspects the graph's SCC condensation, and picks the execution
// strategy, instead of the caller choosing among per-strategy entry
// points. The rule mirrors where each strategy actually wins:
//
//   - the cyclic part splits into several non-trivial SCCs and more than
//     one worker is available -> the SCC-partitioned parallel solver
//     (parallel.go) covers them concurrently;
//   - otherwise (one worker, one giant SCC, or an acyclic graph) -> the
//     paper's sequential loop.
//
// A pinned Strategy bypasses the inspection entirely, and the chosen plan
// is recorded in Stats so callers can see which path served them.

// Strategy identifies the execution strategy of a solve.
type Strategy int

const (
	// StrategyAuto lets the planner choose from the graph's SCC structure
	// and the worker budget.
	StrategyAuto Strategy = iota
	// StrategySequential runs the paper's single-threaded cover loop.
	StrategySequential
	// StrategyParallelSCC decomposes the graph into strongly connected
	// components and covers them concurrently (parallel.go).
	StrategyParallelSCC
)

var strategyNames = map[Strategy]string{
	StrategyAuto:        "auto",
	StrategySequential:  "sequential",
	StrategyParallelSCC: "scc-parallel",
}

// String returns the strategy's name as recorded in Stats.Strategy.
func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy resolves a strategy name ("auto", "sequential",
// "scc-parallel").
func ParseStrategy(s string) (Strategy, error) {
	for st, name := range strategyNames {
		if s == name {
			return st, nil
		}
	}
	return 0, fmt.Errorf("core: unknown strategy %q (want auto, sequential or scc-parallel)", s)
}

// SolveSpec is the full request a unified solve executes: the algorithm and
// options of a Compute call plus the strategy-selection inputs.
type SolveSpec struct {
	// Algorithm selects the cover algorithm (default BUR, the zero value;
	// callers normally set TDBPlusPlus).
	Algorithm Algorithm
	// Opts carries the computation options.
	Opts Options
	// Workers is the worker budget for strategy selection and parallel
	// execution; <= 0 selects GOMAXPROCS.
	Workers int
	// Strategy pins the execution strategy; StrategyAuto (the zero value)
	// lets the planner choose.
	Strategy Strategy
}

// Plan is the executable outcome of strategy selection.
type Plan struct {
	// Strategy is the selected execution strategy (never StrategyAuto).
	Strategy Strategy
	// Workers is the effective worker count the strategy runs with
	// (1 for sequential plans).
	Workers int
	// Pinned reports that the caller fixed the strategy rather than the
	// planner choosing it.
	Pinned bool
}

// countNontrivial returns the number of strongly connected components with
// at least two vertices — the components that can hold cycles. The
// condensation "splits" (making SCC-partitioned parallelism worthwhile)
// when there are at least two.
func countNontrivial(comps *scc.Result) int {
	nontrivial := 0
	for _, size := range comps.Size {
		if size >= 2 {
			nontrivial++
		}
	}
	return nontrivial
}

// planFor selects the execution plan for a spec. nontrivial lazily counts
// the non-trivial SCCs (an O(n+m) inspection); it is only invoked when the
// decision actually depends on the condensation, and the engine caches it
// across calls.
func planFor(spec SolveSpec, nontrivial func() int) Plan {
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if spec.Strategy != StrategyAuto {
		p := Plan{Strategy: spec.Strategy, Workers: workers, Pinned: true}
		if p.Strategy == StrategySequential {
			p.Workers = 1
		}
		return p
	}
	if workers > 1 && nontrivial() >= 2 {
		return Plan{Strategy: StrategyParallelSCC, Workers: workers}
	}
	return Plan{Strategy: StrategySequential, Workers: 1}
}

// Solve plans and runs a cover computation: the one solve path. Sequential
// plans run on the engine's pooled scratch, and the condensation and
// per-component subgraphs are built lazily, once per engine — a one-shot
// solve is a throwaway engine. ctx supersedes spec.Opts.Context when
// non-nil.
func (e *Engine) Solve(ctx context.Context, spec SolveSpec) (*Result, error) {
	if ctx != nil {
		spec.Opts.Context = ctx
	}
	return e.runPlan(spec, planFor(spec, e.nontrivialSCCs))
}

// runPlan executes a planned solve and stamps the plan into the result's
// statistics.
func (e *Engine) runPlan(spec SolveSpec, plan Plan) (*Result, error) {
	var (
		r   *Result
		err error
	)
	switch plan.Strategy {
	case StrategyParallelSCC:
		r, err = e.computeParallel(spec.Algorithm, spec.Opts, plan.Workers)
	case StrategySequential:
		r, err = e.Compute(nil, spec.Algorithm, spec.Opts)
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", plan.Strategy)
	}
	if err != nil {
		return nil, err
	}
	r.Stats.Strategy = plan.Strategy.String()
	r.Stats.StrategyPinned = plan.Pinned
	r.Stats.Workers = plan.Workers
	return r, nil
}
