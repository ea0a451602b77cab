package core

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tdb/internal/digraph"
	"tdb/internal/fault"
	"tdb/internal/scc"
)

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

// computeParallel computes the same cover problem as Compute by covering
// each non-trivial strongly connected component of the engine's graph
// independently in a worker pool. Every directed cycle lies inside one SCC,
// so the union of per-component covers is a valid cover of the whole
// graph, and since restoring a vertex can only expose cycles inside its own
// component, minimality is preserved per-component and therefore globally.
//
// This is an extension over the paper (which is single-threaded): it helps
// exactly when the cyclic part of the graph splits into many components
// (program-analysis and circuit workloads often do). A graph that is one
// giant SCC gains nothing from the decomposition, and the planner runs the
// sequential loop on it instead. Each component run inherits the caller's
// options and covers the engine's cached component subgraph (sccParts).
//
// Options.Context is polled by every worker; a timeout marks the whole
// result. workers is the plan's resolved worker count.
func (e *Engine) computeParallel(algo Algorithm, opts Options, workers int) (*Result, error) {
	g := e.g
	opts = opts.withDefaults()
	if err := opts.validate(g); err != nil {
		return nil, err
	}
	if err := checkPartialSupport(algo, opts); err != nil {
		return nil, err
	}
	start := time.Now()
	stop := opts.stop()
	r := &Result{}

	parts := e.sccParts()
	r.Stats.SCCSkipped = int64(g.NumVertices())
	// A component smaller than MinLen holds no constrained cycle (e.g. a
	// 2-vertex SCC when 2-cycles are excluded): it is never dispatched and
	// stays counted in SCCSkipped. Largest-first order makes these a suffix.
	for len(parts) > 0 && parts[len(parts)-1].g.NumVertices() < opts.MinLen {
		parts = parts[:len(parts)-1]
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
