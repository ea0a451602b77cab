package core

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tdb/internal/digraph"
	"tdb/internal/fault"
	"tdb/internal/scc"
)

// ComputeParallel computes the same cover problem as Compute by
// decomposing the graph into strongly connected components and covering
// each non-trivial component independently in a worker pool. Every directed
// cycle lies inside one SCC, so the union of per-component covers is a
// valid cover of the whole graph, and since restoring a vertex can only
// expose cycles inside its own component, minimality is preserved
// per-component and therefore globally.
//
// This is an extension over the paper (which is single-threaded): it helps
// exactly when the cyclic part of the graph splits into many components
// (program-analysis and circuit workloads often do). A graph that is one
// giant SCC gains nothing from the decomposition — for that shape, enable
// the intra-SCC BFS-filter prepass (Options.PrepassWorkers) instead; the
// two compose, each component run inheriting the caller's options.
//
// Options.Context is polled by every worker; a timeout marks the whole
// result. workers <= 0 selects GOMAXPROCS. Engine.Solve with
// StrategyParallelSCC runs the same solver over the engine's cached
// components.
func ComputeParallel(g digraph.Adjacency, algo Algorithm, opts Options, workers int) (*Result, error) {
	return computeParallel(g, algo, opts, workers, func() []sccPart {
		return sccParts(g, scc.Compute(g))
	})
}

// sccPart is one non-trivial strongly connected component carved out as its
// own graph: dense IDs in increasing old-ID order, and oldID[i] the ID of
// dense vertex i in the whole graph.
type sccPart struct {
	g     *digraph.Graph
	oldID []VID
}

// sccParts carves every non-trivial component of comps out of g in one
// O(n+m) pass, largest first. That is the dispatch order: the longest job
// starts earliest and the small ones fill in behind it, and components too
// small for a solve's MinLen form a suffix it can trim.
func sccParts(g digraph.Adjacency, comps *scc.Result) []sccPart {
	var ids []int32
	for c, size := range comps.Size {
		if size >= 2 {
			ids = append(ids, int32(c))
		}
	}
	slices.SortStableFunc(ids, func(a, b int32) int {
		return cmp.Compare(comps.Size[b], comps.Size[a])
	})
	rank := make([]int32, len(comps.Size))
	for c := range rank {
		rank[c] = -1
	}
	for i, c := range ids {
		rank[c] = int32(i)
	}
	part := make([]int32, len(comps.Comp))
	for v, c := range comps.Comp {
		part[v] = rank[c]
	}
	subs, oldIDs := digraph.InducedParts(g, part, len(ids))
	parts := make([]sccPart, len(ids))
	for i := range parts {
		parts[i] = sccPart{g: subs[i], oldID: oldIDs[i]}
	}
	return parts
}

// computeParallel is ComputeParallel over the components buildParts
// returns, invoked once the options validate: the engine hands in its
// cached set, the one-shot paths build one per call (reusing the planner's
// decomposition when there is one).
func computeParallel(g digraph.Adjacency, algo Algorithm, opts Options, workers int, buildParts func() []sccPart) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(g); err != nil {
		return nil, err
	}
	if err := checkPartialSupport(algo, opts); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	stop := opts.stop()
	r := &Result{}

	parts := buildParts()
	r.Stats.SCCSkipped = int64(g.NumVertices())
	// A component smaller than MinLen holds no constrained cycle (e.g. a
	// 2-vertex SCC when 2-cycles are excluded): it is never dispatched and
	// stays counted in SCCSkipped. Largest-first order makes these a suffix.
	for len(parts) > 0 && parts[len(parts)-1].g.NumVertices() < opts.MinLen {
		parts = parts[:len(parts)-1]
	}
	// An explicit candidate order induces per-component orders: position
	// index once, each job sorts its component's dense IDs by it.
	var orderPos []int32
	if opts.CandidateOrder != nil {
		orderPos = make([]int32, g.NumVertices())
		for i, v := range opts.CandidateOrder {
			orderPos[v] = int32(i)
		}
	}
	var (
		next     atomic.Int64 // index of the next undispatched component
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		trap     panicTrap
	)
	// runJob covers one component and is the panic-isolation boundary: a
	// panic anywhere in the per-component computation is recovered HERE —
	// outside the merge mutex, so siblings can never deadlock on a lock the
	// dying worker held — and surfaced as a PanicError with the original
	// stack.
	runJob := func(p sccPart) (res *Result, err error) {
		defer func() {
			if v := recover(); v != nil {
				trap.capture(v)
				res, err = nil, trap.Err()
			}
		}()
		fault.Inject(fault.SiteCoreParallelWorker)
		n := p.g.NumVertices()
		subOpts := opts
		subOpts.SCCPrefilter = false // already decomposed
		if orderPos != nil {
			// The component's dense IDs follow old-ID order, so dense
			// ID i is oldID[i]; sorting the dense IDs by the global
			// order's positions replays it inside the component.
			so := make([]VID, n)
			for i := range so {
				so[i] = VID(i)
			}
			sort.Slice(so, func(a, b int) bool {
				return orderPos[p.oldID[so[a]]] < orderPos[p.oldID[so[b]]]
			})
			subOpts.CandidateOrder = so
		}
		if opts.Weights != nil {
			// Remap the cost vector to the component's dense IDs.
			sw := make([]float64, n)
			for i, old := range p.oldID {
				sw[i] = opts.Weights[old]
			}
			subOpts.Weights = sw
		}
		if subOpts.K > n {
			// No simple cycle exceeds the component size; clamping
			// keeps the unconstrained case (K = n) cheap.
			subOpts.K = n
		}
		return Compute(p.g, algo, subOpts)
	}
	for w := 0; w < min(workers, len(parts)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(parts) || trap.tripped() {
					return // done, or a sibling panicked
				}
				p := parts[i]
				if stop != nil && stop() {
					// Stay on the safe side, as the sequential loop does:
					// every vertex of an unprocessed component joins the
					// (partial, non-minimal) cover, so all its cycles stay
					// covered.
					mu.Lock()
					r.Stats.TimedOut = true
					r.Cover = append(r.Cover, p.oldID...)
					r.Stats.SCCSkipped -= int64(len(p.oldID))
					mu.Unlock()
					continue
				}
				res, err := runJob(p)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					for _, v := range res.Cover {
						r.Cover = append(r.Cover, p.oldID[v])
					}
					r.Stats.Checked += res.Stats.Checked
					r.Stats.FilterPruned += res.Stats.FilterPruned
					if res.Stats.FilterBatchWidth > r.Stats.FilterBatchWidth {
						r.Stats.FilterBatchWidth = res.Stats.FilterBatchWidth
					}
					r.Stats.PrepassResolved += res.Stats.PrepassResolved
					r.Stats.CyclesHit += res.Stats.CyclesHit
					r.Stats.PruneRemoved += res.Stats.PruneRemoved
					r.Stats.Detector.Add(res.Stats.Detector)
					r.Stats.SCCSkipped -= int64(res.Stats.N)
					if res.Stats.TimedOut {
						r.Stats.TimedOut = true
					}
					if res.Stats.Degraded {
						r.Stats.Degraded = true
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if r.Stats.TimedOut && opts.PartialOnDeadline {
		// Skipped components joined the cover wholesale, and every
		// per-component result was itself degraded-valid, so the merged
		// cover is a valid conservative cover of the whole graph.
		r.Stats.TimedOut = false
		r.Stats.Degraded = true
	}
	finishStats(r, g, algo, opts, start)
	stampStopReason(r, opts)
	return r, nil
}
