package core

import (
	"context"
	"sync"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
	"tdb/internal/scc"
)

// Engine computes covers over one fixed graph while pooling all working
// state — the detectors' epoch-mark/stamp tables and seed queue, the
// active-adjacency working graph (and its mask fallback), the
// candidate-order buffer, the whole-graph check's peel mask — across runs.
// A one-shot Compute allocates that state afresh every call; under repeated
// traffic over the same graph (the service setting, not the paper's
// one-shot experiments) the engine brings steady-state allocations per
// cover down to the result itself. It is safe for concurrent use: each run
// borrows a private scratch set from an internal sync.Pool.
//
// Solve (plan.go) is the engine's entry point; Compute runs one algorithm
// on pooled scratch below the planner. Context is accepted explicitly and
// takes precedence over Options.Context.
//
// A one-shot engine (NewOneShotEngine) pools nothing: every run allocates
// its scratch and drops it on return, so a throwaway engine leaves no
// scratch reachable from sync.Pool caches after its one solve.
type Engine struct {
	g       digraph.Adjacency
	oneShot bool
	// run-level scratch (mask + order buffer + detector scratch), one per
	// concurrent sequential run.
	runPool sync.Pool
	// detector-level scratch for the cycle queries (FindCycle,
	// HasHopConstrainedCycle) and the edge transversal (TopDownEdges).
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

// NewOneShotEngine creates an engine for a single solve over g: the same
// paths as NewEngine's, with scratch allocated per run and never pooled.
func NewOneShotEngine(g digraph.Adjacency) *Engine {
	return &Engine{g: g, oneShot: true}
}

// getRun borrows a run's scratch: pooled, or fresh on a one-shot engine.
func (e *Engine) getRun() *runScratch {
	if e.oneShot {
		return newRunScratch(e.g.NumVertices())
	}
	return e.runPool.Get().(*runScratch)
}

// putRun returns a run's scratch to the pool; a one-shot engine drops it.
func (e *Engine) putRun(rs *runScratch) {
	if !e.oneShot {
		e.runPool.Put(rs)
	}
}

// getCyc borrows detector scratch: pooled, or fresh on a one-shot engine.
func (e *Engine) getCyc() *cycle.Scratch {
	if e.oneShot {
		return cycle.NewScratch(e.g.NumVertices())
	}
	return e.cycPool.Get()
}

// putCyc returns detector scratch to the pool; a one-shot engine drops it.
func (e *Engine) putCyc(sc *cycle.Scratch) {
	if !e.oneShot {
		e.cycPool.Put(sc)
	}
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
	rs := e.getRun()
	// Deliberately NOT a deferred Put: if compute panics out of this frame
	// (caller-supplied callbacks, or a bug the pool recovery above this layer
	// contains), the scratch was abandoned mid-traversal and may hold
	// poisoned marks — quarantine it to the GC instead of ever handing it to
	// a later, unrelated run.
	r, err := compute(e.g, algo, opts, rs)
	e.putRun(rs)
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
	sc := e.getCyc()
	// Non-deferred Put: a panicking query quarantines its scratch (see
	// Compute) rather than pooling possibly-poisoned marks.
	c := cycle.NewBlockDetectorWith(e.g, k, minLen, nil, sc).FindFrom(s)
	e.putCyc(sc)
	return c
}

// HasHopConstrainedCycle reports whether the engine's graph contains any
// cycle of length in [minLen, k], with pooled detector scratch. Only the
// vertices of the cached condensation's non-trivial components are
// queried: no other vertex lies on a cycle.
func (e *Engine) HasHopConstrainedCycle(k, minLen int) bool {
	e.condensation()
	sc := e.getCyc()
	found := cycle.HasHopConstrainedCycle(e.g, k, minLen, e.candidates, sc)
	// Non-deferred Put: a panicking query quarantines its scratch (see
	// Compute) rather than pooling possibly-poisoned marks.
	e.putCyc(sc)
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
	cyc    *cycle.Scratch      // detector buffers
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

// workingGraph returns the run's working-graph representation reset to the
// given initial state. The default is the compacted active-adjacency view
// (first return non-nil): detector scans then touch exactly the live edges.
// A pooled view is reset to look exactly like a fresh one, so the
// bottom-up cover, whose results depend on the order the DFS scans live
// neighbors, gives the same cover on every run.
// The view serves graphs of every density. The []bool VertexMask is only
// the fallback for graphs beyond the view's int32 edge limit and the
// maskWorkingGraph opt-out (equivalence tests, comparison benchmarks).
func (rs *runScratch) workingGraph(g digraph.Adjacency, opts Options, allActive bool) (*digraph.ActiveAdjacency, working) {
	if opts.maskWorkingGraph || !digraph.FitsActiveAdjacency(g) {
		if rs.active == nil {
			rs.active = digraph.NewVertexMask(g.NumVertices(), false)
		}
		rs.active.Fill(allActive)
		return nil, rs.active
	}
	if rs.view == nil || rs.view.Base() != g {
		rs.view = digraph.NewActiveAdjacency(g, allActive)
	} else {
		rs.view.Reset(allActive)
	}
	return rs.view, rs.view
}

// blockDetector returns a block detector over the working graph that
// workingGraph returned: the view when it returned one, else the mask.
func (rs *runScratch) blockDetector(g digraph.Adjacency, view *digraph.ActiveAdjacency, opts Options) *cycle.BlockDetector {
	if view != nil {
		return cycle.NewBlockDetectorView(view, opts.K, opts.MinLen, rs.cyc)
	}
	return cycle.NewBlockDetectorWith(g, opts.K, opts.MinLen, rs.active.Raw(), rs.cyc)
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
