package tdb

import (
	"context"
	"fmt"

	"tdb/internal/core"
	"tdb/internal/cycle"
)

// Solve computes a hop-constrained cycle cover of g for cycles of length in
// [3, k] (or [WithMinLen, k]) — the single entry point of the package. The
// default is TDB++ over the whole graph. Options select the
// algorithm, the variant (edge transversal, unconstrained), and the
// execution strategy; without a pinned strategy a planning step inspects
// the SCC condensation and the worker budget and runs the SCC-partitioned
// parallel solver when the cyclic part splits into several components,
// the paper's sequential loop otherwise, recording the choice in
// Stats.Strategy. ctx bounds the run; a done context stops the computation
// and marks the result TimedOut. A nil ctx is treated as
// context.Background().
//
// Solve runs on a throwaway Engine that pools nothing, so no scratch
// outlives the call. For repeated solves over one graph use Engine.Solve,
// which keeps the pooled working state and the planning inspection across
// calls.
func Solve(ctx context.Context, g *Graph, k int, opts ...Option) (*Result, error) {
	cfg := newSolveConfig(opts)
	a, err := resolveStorage(&cfg, g)
	if err != nil {
		return nil, err
	}
	return (&Engine{e: core.NewOneShotEngine(a)}).solve(ctx, k, cfg)
}

// resolveStorage picks the backend a solve runs over: WithStorage when
// given, the Graph argument otherwise. A typed-nil *Graph without
// WithStorage is rejected here rather than panicking deep in a traversal.
func resolveStorage(cfg *solveConfig, g *Graph) (Storage, error) {
	if cfg.storage != nil {
		return cfg.storage, nil
	}
	if g == nil {
		return nil, fmt.Errorf("tdb: nil graph (pass a graph or WithStorage)")
	}
	return g, nil
}

// prepareSolve resolves the request-level knobs (hop bound, context) and
// rejects contradictory option combinations.
func prepareSolve(cfg *solveConfig, g Storage, k int, ctx context.Context) error {
	cfg.core.K = k
	if cfg.unconstrained {
		cfg.core.K = cycle.Unconstrained(g)
	}
	cfg.core.Context = ctx
	if cfg.edgeCover {
		switch cfg.strategy {
		case StrategyAuto, StrategySequential:
		default:
			return fmt.Errorf("tdb: WithEdgeCover supports only the sequential strategy, not %v", cfg.strategy)
		}
	}
	return nil
}

// solveEdges runs the edge-transversal variant on e's cycle scratch and
// folds its outcome into the unified Result shape.
func solveEdges(e *core.Engine, cfg solveConfig) (*Result, error) {
	er, err := e.TopDownEdges(cfg.core)
	if err != nil {
		return nil, err
	}
	r := &Result{Edges: er.Edges, Stats: er.Stats}
	r.Stats.Strategy = StrategySequential.String()
	r.Stats.StrategyPinned = cfg.strategy == StrategySequential
	r.Stats.Workers = 1
	return r, nil
}

// Solve is the engine counterpart of the package-level Solve: identical
// semantics, but sequential plans borrow the engine's pooled scratch and
// the planning inspection is cached across calls.
func (e *Engine) Solve(ctx context.Context, k int, opts ...Option) (*Result, error) {
	cfg := newSolveConfig(opts)
	if cfg.storage != nil && cfg.storage != e.Graph() {
		// The engine's pooled state is sized to ITS backend; silently solving
		// another graph with it would be wrong in both directions.
		return nil, fmt.Errorf("tdb: WithStorage on an engine must name the engine's own backend (use NewStorageEngine)")
	}
	return e.solve(ctx, k, cfg)
}

// solve runs a resolved request on the engine's backend.
func (e *Engine) solve(ctx context.Context, k int, cfg solveConfig) (*Result, error) {
	if err := prepareSolve(&cfg, e.Graph(), k, ctx); err != nil {
		return nil, err
	}
	if cfg.edgeCover {
		// The accepted-edge graph is sized to the edge count and built per
		// solve; only the detector's scratch comes from the engine.
		return solveEdges(e.e, cfg)
	}
	return e.e.Solve(nil, cfg.spec())
}
