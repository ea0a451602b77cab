package tdb

import (
	"tdb/internal/core"
	"tdb/internal/digraph"
)

// Option configures a Solve call. Options compose left to right:
//
//	res, err := tdb.Solve(ctx, g, 5,
//	    tdb.WithAlgorithm(tdb.BURPlus),
//	    tdb.WithOrder(tdb.OrderDegreeAsc),
//	    tdb.WithWorkers(8),
//	)
//
// The zero configuration matches the historical defaults: TDB++, natural
// order, MinLen 3, no prefilter, automatic strategy selection over a
// GOMAXPROCS worker budget.
type Option func(*solveConfig)

// solveConfig is the resolved option set of one Solve call.
type solveConfig struct {
	core          core.Options // K filled in by Solve
	algo          Algorithm
	workers       int
	strategy      Strategy
	edgeCover     bool
	unconstrained bool
	storage       Storage
}

// newSolveConfig applies opts over the defaults.
func newSolveConfig(opts []Option) solveConfig {
	cfg := solveConfig{algo: TDBPlusPlus}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// spec translates the configuration for the core planning layer.
func (c *solveConfig) spec() core.SolveSpec {
	return core.SolveSpec{
		Algorithm: c.algo,
		Opts:      c.core,
		Workers:   c.workers,
		Strategy:  c.strategy,
	}
}

// WithMinLen sets the minimum covered cycle length: 3 (the default)
// excludes 2-cycles, 2 includes them (the paper's Table IV variant).
func WithMinLen(minLen int) Option {
	return func(c *solveConfig) { c.core.MinLen = minLen }
}

// WithOrder sets the candidate processing order (default OrderNatural).
func WithOrder(order Order) Option {
	return func(c *solveConfig) { c.core.Order = order }
}

// WithSeed sets the seed for OrderRandom.
func WithSeed(seed uint64) Option {
	return func(c *solveConfig) { c.core.Seed = seed }
}

// WithWeights makes the cover cost-aware: vertex v costs weights[v] (length
// must equal the vertex count) and the algorithms try to keep expensive
// vertices out of the cover. Combine with WithOrder(OrderWeighted) to
// process expensive vertices first, which gives them the best exclusion
// odds. LabeledGraph.Weights builds the vector from external IDs.
func WithWeights(weights []float64) Option {
	return func(c *solveConfig) { c.core.Weights = weights }
}

// WithSCCPrefilter exempts vertices outside non-trivial strongly connected
// components from cover candidacy up front (they lie on no cycle of any
// length).
func WithSCCPrefilter() Option {
	return func(c *solveConfig) { c.core.SCCPrefilter = true }
}

// WithPartialOnDeadline degrades instead of failing when the context
// deadline expires mid-solve: the top-down family returns the cover built so
// far completed with every still-undecided candidate — a VALID
// (every constrained cycle covered) but possibly non-minimal cover — with
// Stats.Degraded set instead of Stats.TimedOut. Solves that finish in time
// are byte-for-byte unaffected. Only the top-down vertex family (TDB, TDB+,
// TDB++) supports the contract; bottom-up and DARC solves, whose partial
// state is not a cover, reject the option with an error, as does
// WithEdgeCover. This is the serving-layer degradation knob: tdbserve maps
// it to the partial_on_deadline request field (DESIGN.md §12).
func WithPartialOnDeadline() Option {
	return func(c *solveConfig) { c.core.PartialOnDeadline = true }
}

// WithWorkers sets the worker budget strategy selection plans against and
// parallel strategies execute with; n <= 0 (the default) selects
// GOMAXPROCS. One worker forces sequential execution.
func WithWorkers(n int) Option {
	return func(c *solveConfig) { c.workers = n }
}

// WithAlgorithm selects the cover algorithm (default TDBPlusPlus).
func WithAlgorithm(algo Algorithm) Option {
	return func(c *solveConfig) { c.algo = algo }
}

// WithStrategy pins the execution strategy instead of letting the planner
// choose from the SCC condensation; see Strategy.
func WithStrategy(s Strategy) Option {
	return func(c *solveConfig) { c.strategy = s }
}

// WithStorage runs the solve over s instead of the Graph argument, which
// may then be nil — the entry point for non-default storage backends:
//
//	mg, err := tdb.OpenMapped("web-Google.tdbcsr")
//	res, err := tdb.Solve(ctx, nil, 5, tdb.WithStorage(mg))
//
// Every algorithm, strategy and option works unchanged over any backend.
// For repeated solves over one backend use NewStorageEngine, which
// additionally pools working state.
func WithStorage(s Storage) Option {
	return func(c *solveConfig) { c.storage = s }
}

// WithEdgeCover switches Solve to the EDGE-transversal problem (the paper's
// Definition 5, the problem the DARC baseline natively solves): the result
// names a minimal edge set whose removal destroys every constrained cycle,
// returned in Result.Edges (Cover stays empty). Edge solves always run the
// top-down "TDB-E" process sequentially.
func WithEdgeCover() Option {
	return func(c *solveConfig) { c.edgeCover = true }
}

// WithUnconstrained lifts the hop constraint: Solve covers cycles of EVERY
// length (the feedback-vertex-style variant of paper Sec. VI-C), ignoring
// its k argument (pass 0 by convention).
func WithUnconstrained() Option {
	return func(c *solveConfig) { c.unconstrained = true }
}

// Strategy identifies how a solve executes; the planner picks one
// automatically from the graph's SCC condensation and the worker budget
// unless WithStrategy pins it. The chosen plan is recorded in
// Stats.Strategy / Stats.Workers / Stats.StrategyPinned.
type Strategy = core.Strategy

// Execution strategies.
const (
	// StrategyAuto (the default) selects StrategyParallelSCC when the
	// condensation splits into several non-trivial SCCs and more than one
	// worker is available, and StrategySequential otherwise.
	StrategyAuto = core.StrategyAuto
	// StrategySequential is the paper's single-threaded cover loop.
	StrategySequential = core.StrategySequential
	// StrategyParallelSCC covers each non-trivial strongly connected
	// component concurrently.
	StrategyParallelSCC = core.StrategyParallelSCC
)

// Renumbering selects a cache-aware vertex renumbering mode, applied once
// when the graph is built (Builder.BuildRenumbered, Graph.Renumber with
// RenumberPerm); see the digraph-layer docs for the layouts.
type Renumbering = digraph.Renumbering

// Renumbering modes.
const (
	// RenumberNone keeps the input numbering (the identity permutation).
	RenumberNone = digraph.RenumberNone
	// RenumberDegree renames vertices by descending total degree, packing
	// the high-degree core into a compact cache-resident ID prefix.
	RenumberDegree = digraph.RenumberDegree
	// RenumberBFS renames vertices in a Cuthill-McKee-style breadth-first
	// sweep, giving edge endpoints nearby IDs.
	RenumberBFS = digraph.RenumberBFS
)

// ParseRenumbering resolves a renumbering name ("none", "degree", "bfs").
func ParseRenumbering(s string) (Renumbering, error) { return digraph.ParseRenumbering(s) }

// ParseAlgorithm resolves the paper's algorithm names ("TDB++", "BUR+",
// "DARC-DV", ...).
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// ParseOrder resolves a candidate-order name ("natural", "degree-asc",
// "degree-desc", "random", "weighted").
func ParseOrder(s string) (Order, error) { return core.ParseOrder(s) }

// ParseStrategy resolves a strategy name ("auto", "sequential",
// "scc-parallel").
func ParseStrategy(s string) (Strategy, error) { return core.ParseStrategy(s) }
