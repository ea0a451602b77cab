package core

import (
	"context"
	"fmt"
	"runtime"

	"tdb/internal/digraph"
	"tdb/internal/scc"
)

// This file is the planning layer of the unified solve surface: one entry
// point (Solve / Engine.Solve) accepts the full option set plus a worker
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
// The planner never selects the intra-SCC BFS-filter prepass (prepass.go)
// on its own: on one giant SCC it measured no faster than the sequential
// loop it fronts (DESIGN.md §8), so it runs only when pinned. A pinned
// Strategy (or an explicit Opts.PrepassWorkers) bypasses the inspection
// entirely, and the chosen plan is recorded in Stats so callers can see
// which path served them.

// Strategy identifies the execution strategy of a solve.
type Strategy int

const (
	// StrategyAuto lets the planner choose from the graph's SCC structure
	// and the worker budget.
	StrategyAuto Strategy = iota
	// StrategySequential runs the paper's single-threaded cover loop.
	StrategySequential
	// StrategyParallelSCC decomposes the graph into strongly connected
	// components and covers them concurrently (ComputeParallel).
	StrategyParallelSCC
	// StrategyPrepass runs TDB++ with the parallel BFS-filter prepass in
	// front of the sequential loop (Options.PrepassWorkers).
	StrategyPrepass
)

var strategyNames = map[Strategy]string{
	StrategyAuto:        "auto",
	StrategySequential:  "sequential",
	StrategyParallelSCC: "scc-parallel",
	StrategyPrepass:     "prepass",
}

// String returns the strategy's name as recorded in Stats.Strategy.
func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy resolves a strategy name ("auto", "sequential",
// "scc-parallel", "prepass").
func ParseStrategy(s string) (Strategy, error) {
	for st, name := range strategyNames {
		if s == name {
			return st, nil
		}
	}
	return 0, fmt.Errorf("core: unknown strategy %q (want auto, sequential, scc-parallel or prepass)", s)
}

// SolveSpec is the full request a unified solve executes: the algorithm and
// options of a Compute call plus the strategy-selection inputs.
type SolveSpec struct {
	// Algorithm selects the cover algorithm (default BUR, the zero value;
	// callers normally set TDBPlusPlus).
	Algorithm Algorithm
	// Opts carries the computation options. Opts.PrepassWorkers != 0 pins
	// the prepass strategy with exactly that worker count.
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
// decision actually depends on the condensation, and engines cache it
// across calls.
//
// Stats must record what actually runs, so degenerate prepass requests are
// demoted to the sequential plan here rather than silently skipped later:
// the prepass exists only for TDBPlusPlus, and at one effective worker it
// is strictly slower than the loop it fronts (DESIGN.md §6).
func planFor(spec SolveSpec, nontrivial func() int) Plan {
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if spec.Strategy != StrategyAuto {
		s := spec.Strategy
		if s == StrategyPrepass {
			// An explicit prepass worker count overrides the general
			// budget — it is the more specific request.
			if w := spec.Opts.PrepassWorkers; w != 0 {
				if w < 0 {
					w = runtime.GOMAXPROCS(0)
				}
				workers = w
			}
			if spec.Algorithm != TDBPlusPlus || workers <= 1 {
				s = StrategySequential
			}
		}
		p := Plan{Strategy: s, Workers: workers, Pinned: true}
		if s == StrategySequential {
			p.Workers = 1
		}
		return p
	}
	if spec.Opts.PrepassWorkers != 0 && spec.Algorithm == TDBPlusPlus {
		// An explicit prepass worker count is a pin: the caller asked for
		// the prepass configuration, not for strategy selection. (For any
		// other algorithm the field has no meaning and planning proceeds.)
		w := spec.Opts.PrepassWorkers
		if w < 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if w <= 1 {
			return Plan{Strategy: StrategySequential, Workers: 1, Pinned: true}
		}
		return Plan{Strategy: StrategyPrepass, Workers: w, Pinned: true}
	}
	if workers > 1 && nontrivial() >= 2 {
		return Plan{Strategy: StrategyParallelSCC, Workers: workers}
	}
	return Plan{Strategy: StrategySequential, Workers: 1}
}

// Solve plans and runs a cover computation one-shot. For repeated solves
// over one graph use Engine.Solve, which additionally caches the
// condensation inspection and the per-component subgraphs.
func Solve(g digraph.Adjacency, spec SolveSpec) (*Result, error) {
	var comps *scc.Result // planner's decomposition, reused by the executor
	plan := planFor(spec, func() int {
		comps = scc.Compute(g)
		return countNontrivial(comps)
	})
	return runPlan(nil, g, spec, plan, func() []sccPart {
		if comps == nil {
			comps = scc.Compute(g)
		}
		return sccParts(g, comps)
	})
}

// Solve is the engine counterpart of the package-level Solve: the same
// planning step, but sequential and prepass plans run on the engine's
// pooled scratch, and the condensation and per-component subgraphs are
// built once per engine. ctx supersedes spec.Opts.Context when non-nil.
func (e *Engine) Solve(ctx context.Context, spec SolveSpec) (*Result, error) {
	if ctx != nil {
		spec.Opts.Context = ctx
	}
	plan := planFor(spec, e.nontrivialSCCs)
	return runPlan(e, e.g, spec, plan, e.sccParts)
}

// runPlan executes a planned solve on the one-shot path (e == nil) or the
// engine path, and stamps the plan into the result's statistics. parts
// supplies the partitioned solver's components; only an scc-parallel plan
// invokes it.
func runPlan(e *Engine, g digraph.Adjacency, spec SolveSpec, plan Plan, parts func() []sccPart) (*Result, error) {
	opts := spec.Opts
	var (
		r   *Result
		err error
	)
	switch plan.Strategy {
	case StrategyParallelSCC:
		r, err = computeParallel(g, spec.Algorithm, opts, plan.Workers, parts)
	case StrategyPrepass:
		// plan.Workers is the reconciled prepass worker count (>= 2 by
		// construction in planFor), so the topDown gate never silently
		// skips a prepass the plan promised.
		opts.PrepassWorkers = plan.Workers
		fallthrough
	default: // StrategySequential and the prepass fallthrough
		if plan.Strategy == StrategySequential {
			// A sequential plan means sequential: a leftover prepass request
			// (e.g. pinned sequential combined with WithPrepassWorkers) must
			// not spawn workers behind the recorded plan.
			opts.PrepassWorkers = 0
		}
		if e != nil {
			r, err = e.Compute(nil, spec.Algorithm, opts)
		} else {
			r, err = Compute(g, spec.Algorithm, opts)
		}
	}
	if err != nil {
		return nil, err
	}
	r.Stats.Strategy = plan.Strategy.String()
	r.Stats.StrategyPinned = plan.Pinned
	r.Stats.Workers = plan.Workers
	return r, nil
}
