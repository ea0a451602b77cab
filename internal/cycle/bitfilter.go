package cycle

import (
	"math/bits"

	"tdb/internal/digraph"
)

// BatchWidth is the lane capacity of the bit-parallel batched BFS filters:
// one uint64 word packs this many concurrent single-source BFS traversals.
// Every group of a batch runs in one such word.
const BatchWidth = 64

// BatchBFSFilter is the bit-parallel batched form of BFSFilter: it answers
// up to BatchWidth CanPrune queries with ONE bidirectional level-synchronous
// BFS. Each source occupies one bit lane of a 64-bit word; a vertex's word
// records which sources' traversals have settled it, and every edge scan
// ORs the scanning vertex's word into its successor — dozens of
// queue-driven traversals collapse into word-wide sweeps whose edge
// expansions are shared by all lanes on the same frontier. Longer batches
// run as consecutive 64-lane groups.
//
// The traversal meets in the middle. The scalar filter asks "is any
// IN-NEIGHBOR of s reachable from s within k-1 hops" — a forward search of
// depth k-1 against a backward radius of one. The batched filter balances
// the radii: a closed walk of length <= k through s exists if and only if
// some vertex is settled by a forward search within ceil(k/2) hops AND a
// backward search (following in-edges) within floor(k/2) hops — split the
// walk in the middle. Both searches advance one level at a time, smaller
// frontier first; a lane whose forward and backward settlements MEET has
// its closed walk and retires unpruned on the spot (the scalar filter's
// early return, per lane), a lane whose level-1 backward frontier is empty
// has no in-neighbor and retires pruned, and the sweep stops the moment
// every lane is decided. Keeping both frontiers shallow is where the win
// over depth-(k-1) forward search comes from; the answer is EXACTLY the
// scalar filter's, per lane, because both predicates are "shortest closed
// walk <= k". (Early frontier death only strengthens this: a side that
// exhausts before its depth cap has settled its complete reachable set, so
// the other side's cap alone bounds the meet.)
//
// Each level runs in two phases. EXPAND is a branch-free OR-scatter: for
// every frontier vertex u, the lanes that newly reached u are OR-ed into
// the pending word of each neighbor — no membership, settled or meet
// checks in the inner loop. CONSOLIDATE then walks the (deduplicated)
// pending vertices once: drops non-members, masks off lanes that already
// settled the vertex in this direction, retires lanes that meet the other
// direction's settlements, and compacts the survivors into the next
// frontier.
//
// Like BFSFilter it carries both working-graph backends — an active mask
// over the CSR rows or a digraph.ActiveAdjacency view — via the shared
// adjacency layer, and both are retained, so activation changes between
// batches are visible to later batches.
type BatchBFSFilter struct {
	adjacency
	k int

	s *Scratch // lane group: settlement maps, frontiers, touched

	Stats Stats
}

// NewBatchBFSFilter creates a batched filter for hop constraint k over the
// subgraph induced by active (nil = whole graph). The active slice is
// retained.
func NewBatchBFSFilter(g digraph.Adjacency, k int, active []bool) *BatchBFSFilter {
	return NewBatchBFSFilterWith(g, k, active, nil)
}

// NewBatchBFSFilterWith is NewBatchBFSFilter borrowing the lane buffers from
// s (nil allocates fresh scratch). See Scratch for the sharing rules.
func NewBatchBFSFilterWith(g digraph.Adjacency, k int, active []bool, s *Scratch) *BatchBFSFilter {
	if active != nil && len(active) != g.NumVertices() {
		panic("cycle: BatchBFSFilter active mask length mismatch")
	}
	if k < 2 {
		panic("cycle: BatchBFSFilter needs k >= 2")
	}
	return &BatchBFSFilter{
		adjacency: maskAdjacency(g, active), k: k,
		s: checkScratch(s, g.NumVertices()),
	}
}

// NewBatchBFSFilterView is NewBatchBFSFilterWith over an active-adjacency
// working-graph view instead of a mask: each sweep then expands exactly the
// live edges. The view is retained.
func NewBatchBFSFilterView(view *digraph.ActiveAdjacency, k int, s *Scratch) *BatchBFSFilter {
	if k < 2 {
		panic("cycle: BatchBFSFilter needs k >= 2")
	}
	return &BatchBFSFilter{
		adjacency: viewAdjacency(view), k: k,
		s: checkScratch(s, view.Len()),
	}
}

// CanPruneBatch sets pruned[i] to BFSFilter.CanPrune(sources[i]) for every
// source; len(pruned) must equal len(sources). Batches wider than
// BatchWidth are processed in consecutive 64-lane groups.
//
// Stats accounting: Queries and BFSPruned count per lane, exactly as a
// scalar query loop would; BFSVisited counts per-lane FORWARD settlements
// (one vertex settled by three lanes counts three); EdgeScans counts
// physical adjacency reads in both directions, each serving every lane on
// the frontier word.
func (f *BatchBFSFilter) CanPruneBatch(sources []VID, pruned []bool) {
	if len(sources) != len(pruned) {
		panic("cycle: BatchBFSFilter sources/pruned length mismatch")
	}
	for len(sources) > BatchWidth {
		f.pruneWord(sources[:BatchWidth], pruned[:BatchWidth])
		sources, pruned = sources[BatchWidth:], pruned[BatchWidth:]
	}
	if len(sources) > 0 {
		f.pruneWord(sources, pruned)
	}
}

// VisitUnpruned sweeps every vertex of [0, n) through the filter, one
// 64-vertex group at a time, and calls visit for each vertex it cannot
// prune. A false return from visit stops the sweep; VisitUnpruned reports
// whether the sweep ran to completion. This is the shared shape of the
// filter-then-detector loops (HasHopConstrainedCycle and friends).
func (f *BatchBFSFilter) VisitUnpruned(n int, visit func(VID) bool) bool {
	var batch [BatchWidth]VID
	var pruned [BatchWidth]bool
	for lo := 0; lo < n; {
		w := min(BatchWidth, n-lo)
		for i := 0; i < w; i++ {
			batch[i] = VID(lo + i)
		}
		f.pruneWord(batch[:w], pruned[:w])
		for i := 0; i < w; i++ {
			if !pruned[i] && !visit(VID(lo+i)) {
				return false
			}
		}
		lo += w
	}
	return true
}

// pruneWord answers one group of at most BatchWidth sources in one 64-lane
// word; every lane op is direct uint64 arithmetic.
func (f *BatchBFSFilter) pruneWord(sources []VID, pruned []bool) {
	f.Stats.Batches++
	f.Stats.Queries += int64(len(sources))
	ls := f.s.laneState()
	reachedF, reachedB := ls.reachedF, ls.reachedB
	curF, nextF, curB, nextB := ls.frontiers[0], ls.frontiers[1], ls.frontiers[2], ls.frontiers[3]
	touched := f.s.touched[:0]
	var edgeScans int64

	// Seed both directions at the sources. A lane's own bits guard both
	// sweeps against re-settling their source, which also keeps the source
	// from ever counting as its own meeting point (the scalar filter's
	// w != s rule).
	var alive uint64
	for i, src := range sources {
		pruned[i] = false
		if !f.startActive(src) {
			pruned[i] = true
			f.Stats.BFSPruned++
			continue
		}
		bit := uint64(1) << uint(i)
		alive |= bit
		if reachedF.Words[src] == 0 && reachedB.Words[src] == 0 {
			touched = append(touched, src)
		}
		reachedF.Words[src] |= bit
		reachedB.Words[src] |= bit
		curF.Push(src, bit)
		curB.Push(src, bit)
	}

	bmax := f.k / 2
	fmax := f.k - bmax
	fdist, bdist := 0, 0
	for alive != 0 {
		// Advance the smaller live frontier, within its depth cap; the
		// backward side breaks ties so level-1 in-neighbor marks come
		// first.
		back := bdist < bmax && curB.Len() > 0 &&
			(fdist >= fmax || curF.Len() == 0 || curB.Len() <= curF.Len())
		if !back && (fdist >= fmax || curF.Len() == 0) {
			break
		}
		var cur, next *digraph.LaneFrontier
		var settled, marks *digraph.LaneBits
		if back {
			bdist++
			cur, next, settled, marks = curB, nextB, reachedB, reachedF
		} else {
			fdist++
			cur, next, settled, marks = curF, nextF, reachedF, reachedB
		}

		// Expand: an OR-scatter whose only per-edge checks are the frontier
		// dedup and the meet test. The meet test is what preserves the
		// scalar filter's fail-fast behavior: a lane that touches a vertex
		// the opposite sweep has settled is retired mid-row, so groups
		// whose lanes all hit quickly (the dense late-loop regime) stop
		// after a handful of scans instead of completing the level. The
		// opposite side's settlements are already membership-filtered, so
		// the test needs no mask of its own.
		for _, u := range cur.Verts {
			lanes := cur.Bits.Words[u] & alive
			if lanes == 0 {
				continue
			}
			var row []VID
			if back {
				row = f.in(u)
			} else {
				row = f.out(u)
			}
			edgeScans += int64(len(row))
			for _, w := range row {
				// Self-loops never extend a walk the scalar filter would
				// count (a settled vertex re-settling itself), and at a
				// SOURCE a self-loop would meet the lane's own seed mark;
				// skip them, as the scalar filter's w != s / visited
				// checks do.
				if w == u {
					continue
				}
				// On the view path every scanned w is live; only the mask
				// filters, keeping non-members out of the scatter.
				if f.active != nil && !f.active[w] {
					continue
				}
				if h := lanes & marks.Words[w]; h != 0 {
					// Meet: a closed walk of length <= fdist+bdist <= k.
					alive &^= h
					lanes &^= h
					if lanes == 0 {
						break
					}
				}
				if next.Bits.Words[w] == 0 {
					next.Verts = append(next.Verts, w)
				}
				next.Bits.Words[w] |= lanes
			}
			if alive == 0 {
				break
			}
		}

		// Consolidate the pending vertices into the next frontier.
		kept := next.Verts[:0]
		var got uint64
		for _, w := range next.Verts {
			pend := next.Bits.Words[w]
			next.Bits.Words[w] = 0
			// On the view path every scanned w is live; only the mask
			// filters.
			if f.active != nil && !f.active[w] {
				continue
			}
			add := pend & alive &^ settled.Words[w]
			if add == 0 {
				continue
			}
			if h := add & marks.Words[w]; h != 0 {
				// Lanes h meet the opposite sweep at w: a closed walk of
				// length fdist+bdist <= k exists. Retire them unpruned.
				alive &^= h
				add &^= h
				if add == 0 {
					continue
				}
			}
			if settled.Words[w] == 0 && marks.Words[w] == 0 {
				touched = append(touched, w)
			}
			settled.Words[w] |= add
			got |= add
			if !back {
				f.Stats.BFSVisited += int64(bits.OnesCount64(add))
			}
			next.Bits.Words[w] = add
			kept = append(kept, w)
		}
		next.Verts = kept
		cur.Clear()
		if back {
			curB, nextB = next, cur
		} else {
			curF, nextF = next, cur
		}

		if back && bdist == 1 {
			// A lane that settled nothing at backward level 1 has no
			// active in-neighbor: no walk can close, prune immediately.
			for i := range sources {
				bit := uint64(1) << uint(i)
				if alive&bit != 0 && got&bit == 0 {
					alive &^= bit
					pruned[i] = true
					f.Stats.BFSPruned++
				}
			}
		}
	}
	f.Stats.EdgeScans += edgeScans

	// Lanes still alive never met: every closed walk through their source
	// is longer than k, so the source is pruned.
	for i := range sources {
		if alive&(uint64(1)<<uint(i)) != 0 {
			pruned[i] = true
			f.Stats.BFSPruned++
		}
	}

	// Return the lane buffers zeroed, clearing only what was touched.
	curF.Clear()
	nextF.Clear()
	curB.Clear()
	nextB.Clear()
	reachedF.ClearList(touched)
	reachedB.ClearList(touched)
	f.s.touched = touched[:0]
}
