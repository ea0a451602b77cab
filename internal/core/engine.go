package core

import (
	"context"
	"slices"
	"sync"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
	"tdb/internal/scc"
)

// Engine computes covers over one fixed graph while pooling all working
// state — the detectors' epoch-mark/stamp tables, the BFS-filter queues,
// the active-adjacency working graph (and its mask fallback), the
// candidate-order buffer — across runs.
// A one-shot Compute allocates that state afresh every call; under repeated
// traffic over the same graph (the service setting, not the paper's
// one-shot experiments) the engine brings steady-state allocations per
// cover down to the result itself. It is safe for concurrent use: each run
// borrows a private scratch set from an internal sync.Pool.
//
// Solve (plan.go) is the engine's entry point; Compute runs one algorithm
// on pooled scratch below the planner. Context is accepted explicitly and
// takes precedence over Options.Context.
type Engine struct {
	g digraph.Adjacency
	// run-level scratch (mask + order buffer + detector scratch), one per
	// concurrent sequential run.
	runPool sync.Pool
	// detector-level scratch for the cycle queries (FindCycle,
	// HasHopConstrainedCycle).
	cycPool *cycle.ScratchPool
	// Strategy planning inspects the SCC condensation; the graph is fixed,
	// so the engine computes the decomposition, its non-trivial component
	// count and its cycle-candidate mask once.
	planOnce   sync.Once
	comps      *scc.Result
	nontrivial int
	candidates []bool
	// The partitioned solver covers each non-trivial component on its own
	// subgraph; the engine carves them all once, on the first solve that
	// needs them, instead of once per component on every solve.
	partsOnce sync.Once
	parts     []sccPart
}

// NewEngine creates a reusable compute engine over g.
func NewEngine(g digraph.Adjacency) *Engine {
	e := &Engine{g: g, cycPool: cycle.NewScratchPool(g.NumVertices())}
	e.runPool.New = func() any { return newRunScratch(g.NumVertices()) }
	return e
}

// Graph returns the adjacency backend the engine computes over.
func (e *Engine) Graph() digraph.Adjacency { return e.g }

// Compute runs the selected algorithm with pooled scratch state. A nil ctx
// falls back to opts.Context; a non-nil ctx supersedes it.
func (e *Engine) Compute(ctx context.Context, algo Algorithm, opts Options) (*Result, error) {
	if ctx != nil {
		opts.Context = ctx
	}
	opts = opts.withDefaults()
	if err := opts.validate(e.g); err != nil {
		return nil, err
	}
	rs := e.runPool.Get().(*runScratch)
	// Deliberately NOT a deferred Put: if compute panics out of this frame
	// (caller-supplied callbacks, or a bug the pool recovery above this layer
	// contains), the scratch was abandoned mid-traversal and may hold
	// poisoned marks — quarantine it to the GC instead of ever handing it to
	// a later, unrelated run.
	r, err := compute(e.g, algo, opts, rs)
	e.runPool.Put(rs)
	return r, err
}

// condensation returns the engine's cached SCC decomposition.
func (e *Engine) condensation() *scc.Result {
	e.planOnce.Do(func() {
		e.comps = scc.Compute(e.g)
		e.nontrivial = countNontrivial(e.comps)
		e.candidates = e.comps.CycleCandidates()
	})
	return e.comps
}

// nontrivialSCCs returns the cached non-trivial component count, the
// planner's condensation-splits signal, in O(1) steady state.
func (e *Engine) nontrivialSCCs() int {
	e.condensation()
	return e.nontrivial
}

// FindCycle returns one cycle of length in [minLen, k] through vertex s,
// or nil, using the block-based detector on scratch borrowed from the
// engine's pool — the allocation-free counterpart of the one-shot package
// query for serving repeated traffic.
func (e *Engine) FindCycle(k, minLen int, s VID) []VID {
	sc := e.cycPool.Get()
	// Non-deferred Put: a panicking query quarantines its scratch (see
	// Compute) rather than pooling possibly-poisoned marks.
	c := cycle.NewBlockDetectorWith(e.g, k, minLen, nil, sc).FindFrom(s)
	e.cycPool.Put(sc)
	return c
}

// HasHopConstrainedCycle reports whether the engine's graph contains any
// cycle of length in [minLen, k], with pooled detector scratch. Only the
// vertices of the cached condensation's non-trivial components are
// queried: no other vertex lies on a cycle.
func (e *Engine) HasHopConstrainedCycle(k, minLen int) bool {
	e.condensation()
	active := slices.Clone(e.candidates)
	sc := e.cycPool.Get()
	found := cycle.HasHopConstrainedCycle(e.g, k, minLen, active, sc)
	// Non-deferred Put: a panicking query quarantines its scratch (see
	// Compute) rather than pooling possibly-poisoned marks.
	e.cycPool.Put(sc)
	return found
}

// sccParts returns the engine's cached non-trivial components, largest
// first, each as its own subgraph. They are built on the first
// scc-parallel solve and reused by every later one, so a steady-state
// solve costs only the per-component covers.
func (e *Engine) sccParts() []sccPart {
	e.partsOnce.Do(func() {
		e.parts = sccParts(e.g, e.condensation())
	})
	return e.parts
}

// runScratch bundles the per-run O(n) buffers of the sequential cover
// algorithms. The zero state of every buffer is re-established by the
// borrowing algorithm (mask fill, counter clear), not at release time, so a
// pooled scratch carries no information between runs.
type runScratch struct {
	cyc    *cycle.Scratch      // detector + filter buffers (disjoint groups)
	active *digraph.VertexMask // working-graph overlay (mask fallback; lazy)
	// view is the compacted active-adjacency working graph (lazy; pooled
	// across runs so steady-state engine covers stay allocation-free).
	view *digraph.ActiveAdjacency
	ids  []VID   // candidate-order buffer
	h    []int64 // BUR hit counters (lazy)
}

func newRunScratch(n int) *runScratch {
	return &runScratch{
		cyc: cycle.NewScratch(n),
		ids: make([]VID, n),
	}
}

// viewMinAvgDegree gates the active-adjacency view on graph density: below
// an average degree of 2 the graph is forest/DAG-like, detector queries are
// already near-free (most vertices have no active in-neighbor to even start
// a walk from), and the view's O(m) build plus O(deg) activation swaps
// cannot be recouped — measured ~1.7x slower on a 30k-vertex planted-cycles
// graph with davg 1.4, while power-law graphs win with the view from davg 2
// up (BenchmarkCoverWorkingGraph, DESIGN.md §7).
const viewMinAvgDegree = 2

// workingGraph returns the run's working-graph representation reset to the
// given initial state. The default is the compacted active-adjacency view
// (first return non-nil): detector scans then touch exactly the live edges.
// The []bool VertexMask is the fallback for graphs beyond the view's int32
// edge limit, for near-acyclic graphs below the view's density cutoff, and
// for the maskWorkingGraph opt-out (equivalence tests, comparison
// benchmarks).
func (rs *runScratch) workingGraph(g digraph.Adjacency, opts Options, allActive bool) (*digraph.ActiveAdjacency, working) {
	if opts.maskWorkingGraph || !digraph.FitsActiveAdjacency(g) ||
		g.NumEdges() < viewMinAvgDegree*g.NumVertices() {
		if rs.active == nil {
			rs.active = digraph.NewVertexMask(g.NumVertices(), false)
		}
		rs.active.Fill(allActive)
		return nil, rs.active
	}
	if rs.view == nil || rs.view.Base() != g {
		rs.view = digraph.NewActiveAdjacency(g, allActive)
	} else if allActive {
		// The bottom-up cover's results depend on the order the DFS scans
		// live neighbors, so a pooled view must look exactly like a fresh
		// one; the top-down family only asks order-independent questions
		// and gets the cheap O(n) reset.
		rs.view.ResetCanonical(allActive)
	} else {
		rs.view.Reset(allActive)
	}
	return rs.view, rs.view
}

// hitCounters returns the zeroed BUR hit-counter buffer.
func (rs *runScratch) hitCounters(n int) []int64 {
	if rs.h == nil {
		rs.h = make([]int64, n)
	} else {
		clear(rs.h)
	}
	return rs.h
}
