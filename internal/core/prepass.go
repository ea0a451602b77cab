package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
	"tdb/internal/fault"
)

// This file implements the parallel BFS-filter prepass for TDB++, the first
// intra-SCC parallelization in the repository: the SCC-partitioned solver
// (parallel.go) gains nothing on a graph that is one giant strongly
// connected component, while the prepass parallelizes inside it.
//
// Soundness rests on subgraph inheritance: the BFS-filter (Alg. 11) proves
// "no constrained cycle through v" on whatever graph it runs on, and the
// property survives taking subgraphs — removing vertices only destroys
// cycles. When the sequential loop reaches candidate v, its working graph
// G0+v holds the candidates ordered before v MINUS the cover collected so
// far. The prepass queries v on its PREFIX graph — all candidates ordered
// before v, cover vertices conservatively included — which is a superset
// of G0+v, so a prefix-graph prune can never turn out wrong in the loop. (The full graph G would be sound by
// the same lemma, but strictly wasteful: each of its queries costs as much
// as the LAST loop query, roughly twice the average prefix query, which
// would make the single-worker prepass slower than the plain sequential
// loop it replaces.)
//
// Queries run bit-parallel: each worker packs up to cycle.BatchWidth
// consecutive candidates into one 64-lane word and answers them with a
// single level-synchronous sweep (cycle.BatchPrefixFilter), each lane
// confined to its own source's prefix, so the resolution mask is
// bit-identical to per-vertex scalar queries — the in-loop filter, running
// on the even smaller G0+v, would have pruned every prepass-pruned vertex
// too, and TDB++ with the prepass returns the identical cover, only
// redistributing (and parallelizing) filter work. Workers claim position
// chunks from an atomic counter; prefix membership is a read-only shared
// position array, so a worker's whole private state is one detector
// Scratch — no locks and no O(n) setup on the query path. Wall-clock
// speedup therefore tracks GOMAXPROCS; with a single CPU the pass degrades
// gracefully to the sequential filter cost.

// prepassChunk is the number of order positions a worker claims per atomic
// increment: large enough to amortize the atomic over several 64-lane
// groups, small enough to balance the position-dependent query costs.
const prepassChunk = 512

// prunedGroup queries one group of candidates (ascending position
// order) and marks the pruned lanes in resolved, returning how many it
// marked.
func prunedGroup(f *cycle.BatchPrefixFilter, batch []VID, prunedBuf []bool, resolved []bool) int64 {
	f.CanPruneBatch(batch, prunedBuf)
	var pruned int64
	for i, v := range batch {
		if prunedBuf[i] {
			resolved[v] = true
			pruned++
		}
	}
	return pruned
}

// prepass runs the prefix-graph BFS filter over all candidates with
// opts.PrepassWorkers workers (<0 selects GOMAXPROCS) and returns the
// resolution mask: resolved[v] reports that v provably lies on no
// constrained cycle of any graph the sequential loop can query it on.
// order is the exact candidate order the loop will use; candidates
// (optional) skips vertices the SCC prefilter already exempted. stop
// aborts the pass early; an aborted pass is still sound (resolved is only
// ever set on proof).
//
// A panic in one worker no longer takes the process down: the worker
// recovers, its siblings drain, its borrowed scratch is quarantined (never
// returned to the pool), and the pass reports a PanicError carrying the
// original stack.
func prepass(g digraph.Adjacency, opts Options, order []VID, candidates []bool, stop func() bool, st *Stats, rs *runScratch) ([]bool, error) {
	workers := opts.PrepassWorkers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	resolved := rs.resolvedBuf(n)
	pos := rs.posBuf(n)
	for i, v := range order {
		pos[v] = int32(i)
	}

	// scan resolves order positions [lo, hi) on one worker's filter, one
	// 64-lane group at a time; scanning by position yields the ascending
	// order the per-lane prefixes require.
	scan := func(f *cycle.BatchPrefixFilter, lo, hi int) int64 {
		var pruned int64
		var batchBuf [cycle.BatchWidth]VID
		var prunedBuf [cycle.BatchWidth]bool
		nb := 0
		for p := lo; p < hi; p++ {
			v := order[p]
			if candidates != nil && !candidates[v] {
				continue
			}
			batchBuf[nb] = v
			nb++
			if nb == cycle.BatchWidth {
				pruned += prunedGroup(f, batchBuf[:nb], prunedBuf[:nb], resolved)
				nb = 0
			}
		}
		if nb > 0 {
			pruned += prunedGroup(f, batchBuf[:nb], prunedBuf[:nb], resolved)
		}
		return pruned
	}

	if workers <= 1 {
		// Single worker runs inline on the run's own scratch: no
		// goroutines, no atomics — the cost is the filter queries the
		// sequential loop is about to skip. A panic here propagates on the
		// calling goroutine as any sequential panic would.
		f := cycle.NewBatchPrefixFilterWith(g, opts.K, pos, rs.cyc)
		var pruned int64
		for lo := 0; lo < n; lo += prepassChunk {
			if stop != nil && stop() {
				break
			}
			pruned += scan(f, lo, min(lo+prepassChunk, n))
		}
		st.PrepassResolved += pruned
		st.Detector.Add(f.Stats)
		return resolved, nil
	}

	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		trap panicTrap
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc *cycle.Scratch
			if rs.cycPool != nil {
				sc = rs.cycPool.Get()
			}
			defer func() {
				if p := recover(); p != nil {
					// Record the panic and stand the siblings down. sc is
					// deliberately NOT returned: a scratch abandoned
					// mid-traversal may hold poisoned marks, and a pooled
					// poisoned scratch would corrupt a later, unrelated run.
					trap.capture(p)
				} else if sc != nil {
					rs.cycPool.Put(sc)
				}
			}()
			f := cycle.NewBatchPrefixFilterWith(g, opts.K, pos, sc)
			var pruned int64
			for {
				lo := int(next.Add(prepassChunk)) - prepassChunk
				if lo >= n || trap.tripped() || (stop != nil && stop()) {
					break
				}
				fault.Inject(fault.SiteCorePrepassWorker)
				pruned += scan(f, lo, min(lo+prepassChunk, n))
			}
			mu.Lock()
			st.PrepassResolved += pruned
			st.Detector.Add(f.Stats)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := trap.Err(); err != nil {
		return nil, err
	}
	return resolved, nil
}
