package tdb

import (
	"context"
	"fmt"
	"slices"

	"tdb/internal/core"
	"tdb/internal/cycle"
	"tdb/internal/digraph"
)

// Solve computes a hop-constrained cycle cover of g for cycles of length in
// [3, k] (or [WithMinLen, k]) — the single entry point of the package. The
// default is TDB++ over the whole graph. Options select the
// algorithm, the variant (edge transversal, unconstrained), and the
// execution strategy; without a pinned strategy a planning step inspects
// the SCC condensation and the worker budget and picks the fastest path
// (sequential, SCC-partitioned parallel, or the TDB++ prepass), recording
// the choice in Stats.Strategy. ctx bounds the run; a done context stops
// the computation and marks the result TimedOut. A nil ctx is treated as
// context.Background().
//
// For repeated solves over one graph use Engine.Solve, which pools all
// working state and caches the planning inspection.
func Solve(ctx context.Context, g *Graph, k int, opts ...Option) (*Result, error) {
	cfg := newSolveConfig(opts)
	a, err := resolveStorage(&cfg, g)
	if err != nil {
		return nil, err
	}
	if err := prepareSolve(&cfg, a, k, ctx); err != nil {
		return nil, err
	}
	if cfg.edgeCover {
		return solveEdges(a, cfg)
	}
	if cfg.renumber != RenumberNone {
		cg, ok := a.(*digraph.Graph)
		if !ok {
			return nil, errRenumberStorage(a)
		}
		perm := digraph.RenumberPerm(cg, cfg.renumber)
		applyRenumbering(cg, perm, &cfg)
		r, err := core.Solve(cg.Renumber(perm), cfg.spec())
		if err != nil {
			return nil, err
		}
		mapCoverBack(r, digraph.InversePerm(perm), cfg.renumber)
		return r, nil
	}
	return core.Solve(a, cfg.spec())
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

// errRenumberStorage explains the one backend restriction in the solve
// path: renumbering rebuilds the CSR in permuted order, which only the
// in-memory backend supports.
func errRenumberStorage(a Storage) error {
	return fmt.Errorf("tdb: WithRenumbering requires the in-memory graph backend, not %q storage",
		digraph.StorageName(a))
}

// applyRenumbering rewrites cfg for a solve over g renumbered by perm:
// the candidate order is materialized on the ORIGINAL graph and replayed
// through the permutation (so order-driven algorithms visit the same
// logical vertex sequence and return the same cover), and the cost vector
// is permuted alongside.
func applyRenumbering(g *Graph, perm []VID, cfg *solveConfig) {
	order := core.VertexOrder(g, cfg.core)
	mapped := make([]VID, len(order))
	for i, v := range order {
		mapped[i] = perm[v]
	}
	cfg.core.CandidateOrder = mapped
	if cfg.core.Weights != nil {
		w := make([]float64, len(cfg.core.Weights))
		for v, c := range cfg.core.Weights {
			w[perm[v]] = c
		}
		cfg.core.Weights = w
	}
}

// mapCoverBack translates a renumbered-ID result to the input numbering
// and stamps the mode into the stats. Covers leave the core sorted by
// renumbered ID; re-sorting keeps the public "ascending VID" shape.
func mapCoverBack(r *Result, inv []VID, mode Renumbering) {
	for i, v := range r.Cover {
		r.Cover[i] = inv[v]
	}
	slices.Sort(r.Cover)
	r.Stats.Renumbering = mode.String()
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
		if cfg.prepassSet && cfg.core.PrepassWorkers != 0 {
			return fmt.Errorf("tdb: WithEdgeCover does not support the BFS-filter prepass")
		}
		if cfg.renumber != RenumberNone {
			// Edge covers are reported as edge lists whose processing order
			// is CSR-order-dependent; renumbering would silently change the
			// answer, so the combination is rejected.
			return fmt.Errorf("tdb: WithEdgeCover does not support WithRenumbering")
		}
	}
	return nil
}

// solveEdges runs the edge-transversal variant and folds its outcome into
// the unified Result shape.
func solveEdges(g Storage, cfg solveConfig) (*Result, error) {
	er, err := core.TopDownEdges(g, cfg.core)
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
// semantics, but sequential and prepass plans borrow the engine's pooled
// scratch and the planning inspection is cached across calls.
func (e *Engine) Solve(ctx context.Context, k int, opts ...Option) (*Result, error) {
	cfg := newSolveConfig(opts)
	if cfg.storage != nil && cfg.storage != e.Graph() {
		// The engine's pooled state is sized to ITS backend; silently solving
		// another graph with it would be wrong in both directions.
		return nil, fmt.Errorf("tdb: WithStorage on an engine must name the engine's own backend (use NewStorageEngine)")
	}
	if err := prepareSolve(&cfg, e.Graph(), k, ctx); err != nil {
		return nil, err
	}
	if cfg.edgeCover {
		// The edge detector sizes its state to the edge count and is not
		// pooled; engine edge solves share only the graph.
		return solveEdges(e.Graph(), cfg)
	}
	if cfg.renumber != RenumberNone {
		re := e.renumbered(cfg.renumber)
		if re == nil {
			return nil, errRenumberStorage(e.Graph())
		}
		applyRenumbering(e.Graph().(*digraph.Graph), re.perm, &cfg)
		r, err := re.e.Solve(nil, cfg.spec())
		if err != nil {
			return nil, err
		}
		mapCoverBack(r, re.inv, cfg.renumber)
		return r, nil
	}
	return e.e.Solve(nil, cfg.spec())
}
