// Package core implements the paper's hop-constrained cycle cover
// algorithms: the bottom-up family (BUR, BUR+), the top-down family (TDB,
// TDB+, TDB++), and the DARC / DARC-DV baseline it compares against.
//
// All algorithms produce a set of vertices that intersects every simple
// directed cycle of length in [MinLen, K] of the input graph; BUR+ and the
// whole top-down family additionally guarantee minimality (no cover vertex
// can be dropped). The core cover loops are sequential, as in the paper;
// the SCC-partitioned solver (parallel.go) runs them on independent
// components in parallel without changing covers.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
	"tdb/internal/fault"
	"tdb/internal/scc"
)

// VID aliases digraph.VID.
type VID = digraph.VID

// Algorithm selects a cover algorithm.
type Algorithm int

const (
	// BUR is the bottom-up cover with the hit-count heuristic (Alg. 4).
	BUR Algorithm = iota
	// BURPlus is BUR followed by the minimal pruning pass (Alg. 7).
	BURPlus
	// TDB is the top-down cover with the plain DFS detector (Alg. 8).
	TDB
	// TDBPlus is TDB with the block-based detector (Alg. 9-10).
	TDBPlus
	// TDBPlusPlus is TDBPlus with the BFS-filter (Alg. 11), here the
	// detector's exact tagged meet — the paper's headline algorithm.
	TDBPlusPlus
	// DARCDV is the state-of-the-art baseline: the DARC edge transversal
	// run on the line graph and mapped back to vertices (Sec. III-B).
	DARCDV
)

var algoNames = map[Algorithm]string{
	BUR: "BUR", BURPlus: "BUR+", TDB: "TDB", TDBPlus: "TDB+",
	TDBPlusPlus: "TDB++", DARCDV: "DARC-DV",
}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	if s, ok := algoNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm resolves the paper's algorithm names (case-sensitive,
// e.g. "TDB++", "BUR+", "DARC-DV").
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, name := range algoNames {
		if s == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want BUR, BUR+, TDB, TDB+, TDB++ or DARC-DV)", s)
}

// Algorithms lists all algorithms in presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{DARCDV, BUR, BURPlus, TDB, TDBPlus, TDBPlusPlus}
}

// Order selects the order in which candidate vertices are processed.
// The paper uses natural order; the alternatives are ablation knobs
// (experiment "order" in DESIGN.md).
type Order int

const (
	// OrderNatural processes vertices by increasing ID (the paper's order).
	OrderNatural Order = iota
	// OrderDegreeAsc processes low-degree vertices first, which tends to
	// keep hubs in the cover.
	OrderDegreeAsc
	// OrderDegreeDesc processes hubs first.
	OrderDegreeDesc
	// OrderRandom processes vertices in a seeded random order.
	OrderRandom
	// OrderWeighted processes vertices by descending Options.Weights,
	// steering expensive vertices out of the cover (see Options.Weights).
	OrderWeighted
)

// Options configures a cover computation.
type Options struct {
	// K is the hop constraint: cycles of length up to K are covered.
	// Use cycle.Unconstrained(g) to cover cycles of every length
	// (the paper's Sec. VI-C variant). Must be >= MinLen.
	K int
	// MinLen is the minimum cycle length: 3 by default (self-loops and
	// 2-cycles are not cycles, per the paper); 2 switches to the
	// with-2-cycles variant of Table IV.
	MinLen int
	// Order is the candidate processing order (default natural).
	Order Order
	// Seed feeds OrderRandom.
	Seed uint64
	// Weights, when non-nil (length n), makes covers cost-aware: vertex v
	// costs Weights[v] and the algorithms try to keep expensive vertices
	// OUT of the cover. OrderWeighted processes candidates by descending
	// weight — the top-down process excludes a candidate whenever it can,
	// and early candidates see a smaller working graph, so expensive
	// vertices get the best exclusion odds; the minimal pruning passes
	// likewise try to shed the most expensive cover vertices first. This
	// is a best-effort heuristic (the weighted problem inherits the
	// unweighted NP-hardness), extension over the paper.
	Weights []float64
	// SCCPrefilter, when set, first computes strongly connected components
	// and exempts every vertex outside non-trivial SCCs from cover
	// candidacy (such vertices lie on no cycle of any length). This is an
	// extension over the paper; see DESIGN.md.
	SCCPrefilter bool
	// Context, when non-nil, carries cancellation and deadline for the
	// run: it is polled between candidate steps — and additionally inside
	// the exponential-worst-case DFS of the plain detector (TDB) and DARC;
	// the block detector's O(k*m) queries (TDB+, TDB++, BUR, BUR+) run to
	// completion — and a done context stops the algorithm and marks the
	// result TimedOut (or Degraded, see PartialOnDeadline).
	Context context.Context
	// PartialOnDeadline switches the deadline contract of the top-down
	// family (TDB, TDB+, TDB++) from fail to degrade: instead of marking a
	// stopped run TimedOut (result unusable), the run finishes its
	// conservative completion — every candidate not yet decided joins the
	// cover, minus vertices already PROVEN to lie on no constrained cycle —
	// and returns it as a VALID (merely non-minimal) cover with
	// Stats.Degraded set and TimedOut clear. Runs that finish in time are
	// byte-for-byte unaffected. The bottom-up family and DARC grow their
	// covers from the empty set, so no conservative completion exists
	// mid-run; requesting the option with them is an error.
	PartialOnDeadline bool

	// maskWorkingGraph forces the []bool VertexMask working-graph
	// representation instead of the compacted digraph.ActiveAdjacency view.
	// Unexported: the view is strictly a performance representation (see
	// DESIGN.md §7); the mask path exists as the fallback for graphs beyond
	// the view's int32 edge limit and for equivalence tests and comparison
	// benchmarks, which reach it from inside this package.
	maskWorkingGraph bool
}

// stop returns the run's cancellation poll over Options.Context, or nil
// when no context is set. Every stop in this package comes from this poll.
func (o Options) stop() func() bool {
	if o.Context == nil {
		return nil
	}
	ctx := o.Context
	return func() bool { return ctx.Err() != nil }
}

func (o Options) withDefaults() Options {
	if o.MinLen == 0 {
		o.MinLen = cycle.DefaultMinLen
	}
	return o
}

func (o Options) validate(g digraph.Adjacency) error {
	if o.MinLen < 2 {
		return fmt.Errorf("core: MinLen %d < 2", o.MinLen)
	}
	if o.K < o.MinLen {
		return fmt.Errorf("core: K=%d < MinLen=%d", o.K, o.MinLen)
	}
	if o.Weights != nil && len(o.Weights) != g.NumVertices() {
		return fmt.Errorf("core: Weights length %d != n %d", len(o.Weights), g.NumVertices())
	}
	if o.Order == OrderWeighted && o.Weights == nil {
		return fmt.Errorf("core: OrderWeighted requires Options.Weights")
	}
	return nil
}

// Stats records the work a cover computation performed.
type Stats struct {
	Algorithm string
	K, MinLen int
	N, M      int
	CoverSize int
	Duration  time.Duration
	// Checked counts candidate vertices (or, for DARC, edges) evaluated.
	Checked int64
	// SCCSkipped counts candidates exempted by the SCC prefilter.
	SCCSkipped int64
	// FilterPruned counts candidates the filter proved unnecessary on the
	// exact working graph G0+v (TDB++). The filter is the block
	// detector's tagged meet (the paper's Alg. 11 made exact), so at
	// MinLen <= 3 every other checked candidate is one the meet proved
	// necessary, with no DFS; at longer MinLen they go on to the DFS. The
	// filter runs inside the detector's query, so Detector.Queries counts
	// every checked candidate once.
	FilterPruned int64
	// FilterBatchWidth is always 0. It is kept only because the benchmark
	// harness (perfbench) reads it.
	FilterBatchWidth int
	// PrepassResolved is always 0: TDB++ has no prepass any more. Kept so
	// existing readers of the field still compile.
	PrepassResolved int64
	// CyclesHit counts cycles discovered while building the cover (BUR).
	CyclesHit int64
	// PruneRemoved counts vertices removed by the minimal pass (BUR+) or
	// edges demoted by PRUNE (DARC).
	PruneRemoved int64
	// Detector aggregates detector-level counters.
	Detector cycle.Stats
	// TimedOut marks a cancelled run; the cover is then incomplete.
	TimedOut bool
	// Degraded marks a run that hit its deadline under
	// Options.PartialOnDeadline and answered with the conservative
	// completion: the cover is VALID (it intersects every constrained
	// cycle) but not minimal. Mutually exclusive with TimedOut.
	Degraded bool
	// StopReason records why a TimedOut or Degraded run stopped:
	// "deadline" (context.DeadlineExceeded) or "canceled" (context.Canceled
	// or another cause). Empty on runs that finished on their own.
	StopReason string

	// Strategy names the execution strategy the planning layer selected
	// for this run ("sequential" or "scc-parallel"); empty when
	// Compute or TopDownEdges ran directly, below the planner.
	Strategy string
	// StrategyPinned reports that the caller pinned the strategy rather
	// than the planner choosing it from the SCC condensation.
	StrategyPinned bool
	// Workers is the effective worker count of the plan (1 for sequential
	// plans); 0 when no planning step ran.
	Workers int
	// Storage names the adjacency backend the computation ran over
	// ("memory" for the in-memory CSR, "mapped" for the mmap-backed
	// segmented CSR) — the per-solve dimension tdbserve's metrics slice by.
	Storage string
}

// Result is a computed cover plus its statistics.
type Result struct {
	// Cover is the vertex cover, sorted by ID. When Stats.TimedOut is set
	// the cover is partial and NOT a valid cycle cover; when Stats.Degraded
	// is set instead (Options.PartialOnDeadline) the cover is valid but not
	// minimal.
	Cover []VID
	// Edges is the edge transversal of an edge-cover solve (Definition 5's
	// k-cycle transversal); nil for vertex-cover runs, where Cover carries
	// the result instead.
	Edges []digraph.Edge
	Stats Stats
}

// CoverSet returns the cover as a membership mask of length n.
func (r *Result) CoverSet(n int) []bool {
	mask := make([]bool, n)
	for _, v := range r.Cover {
		mask[v] = true
	}
	return mask
}

// Compute runs the selected algorithm one-shot, allocating fresh scratch
// state. For repeated covers over the same graph use an Engine, which pools
// the O(n) scratch across runs. Compute returns an error only for invalid
// options or (for DARC-DV) an infeasible line-graph blow-up; timeouts and
// cancellation (Options.Context) are reported through Stats.TimedOut.
func Compute(g digraph.Adjacency, algo Algorithm, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(g); err != nil {
		return nil, err
	}
	return compute(g, algo, opts, nil)
}

// compute dispatches a validated computation; rs supplies reusable scratch
// (nil allocates fresh, the one-shot path).
func compute(g digraph.Adjacency, algo Algorithm, opts Options, rs *runScratch) (*Result, error) {
	if err := checkPartialSupport(algo, opts); err != nil {
		return nil, err
	}
	// Chaos hook: a panic injected here unwinds through the caller exactly
	// like a solver bug on the request goroutine would (see internal/fault).
	fault.Inject(fault.SiteCoreCompute)
	if rs == nil {
		rs = newRunScratch(g.NumVertices())
	}
	var (
		r   *Result
		err error
	)
	switch algo {
	case BUR:
		r = bottomUp(g, opts, false, rs)
	case BURPlus:
		r = bottomUp(g, opts, true, rs)
	case TDB, TDBPlus, TDBPlusPlus:
		r = topDown(g, algo, opts, rs)
	case DARCDV:
		r, err = darcDV(g, opts)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", algo)
	}
	if err != nil {
		return nil, err
	}
	stampStopReason(r, opts)
	return r, nil
}

// checkPartialSupport rejects PartialOnDeadline for algorithms without a
// conservative mid-run completion (their covers grow from the empty set, so
// a stopped run has no valid cover to degrade to).
func checkPartialSupport(algo Algorithm, opts Options) error {
	if !opts.PartialOnDeadline {
		return nil
	}
	switch algo {
	case TDB, TDBPlus, TDBPlusPlus:
		return nil
	default:
		return fmt.Errorf("core: PartialOnDeadline supports the top-down family only, not %v", algo)
	}
}

// stampStopReason records why a stopped run stopped, from the context's
// error: a run only stops once Options.stop has seen a done context.
func stampStopReason(r *Result, opts Options) {
	if r == nil || (!r.Stats.TimedOut && !r.Stats.Degraded) || r.Stats.StopReason != "" {
		return
	}
	r.Stats.StopReason = "canceled"
	if errors.Is(context.Cause(opts.Context), context.DeadlineExceeded) {
		r.Stats.StopReason = "deadline"
	}
}

// finishStats fills the common fields of a result's statistics.
func finishStats(r *Result, g digraph.Adjacency, algo Algorithm, opts Options, start time.Time) {
	slices.Sort(r.Cover)
	r.Stats.Algorithm = algo.String()
	r.Stats.K = opts.K
	r.Stats.MinLen = opts.MinLen
	r.Stats.N = g.NumVertices()
	r.Stats.M = g.NumEdges()
	r.Stats.CoverSize = len(r.Cover)
	r.Stats.Storage = digraph.StorageName(g)
	r.Stats.Duration = time.Since(start)
}

// cycleCandidates returns the SCC prefilter mask (nil when disabled):
// mask[v] is false for vertices provably on no cycle.
func cycleCandidates(g digraph.Adjacency, opts Options, st *Stats) []bool {
	if !opts.SCCPrefilter {
		return nil
	}
	mask := scc.Compute(g).CycleCandidates()
	for _, ok := range mask {
		if !ok {
			st.SCCSkipped++
		}
	}
	return mask
}
