package cycle

import "tdb/internal/digraph"

// BlockDetector answers "is there a constrained cycle through s?" with the
// paper's block (barrier) technique (Alg. 9 NodeNecessary + Alg. 10 Unblock).
//
// For a query starting at s, block[u] is a per-query lower bound on
// sd(u, s | S): the fewest hops from u back to s avoiding the vertices
// currently on the DFS stack S. When the DFS pushes u at path depth d it
// pessimistically sets block[u] = k - d + 1, the bound that becomes valid if
// the whole subtree under u fails (finding a cycle terminates the query, so
// the pessimism is never observed on success paths). A neighbor w at depth
// d+1 is expanded only when (d+1) + block[w] <= k — otherwise no cycle
// within the hop budget can close through w.
//
// The one repair the bound needs mid-query: when the DFS at depth 1 sees the
// edge u -> s it has found a 2-cycle, which the problem definition rejects
// (MinLen = 3), yet u provably reaches s in one hop. Unblock(u, 1) records
// that and relaxes in-neighbors transitively (v -> u -> s gives block[v] <= 2,
// and so on), exactly Alg. 9 line 7. Without this repair the pessimistic
// bound set at push time would wrongly suppress longer cycles through u.
//
// Distance-seeded barriers (deviation from Alg. 9, DESIGN.md §2): where the
// paper starts every query at block[u] = 0, query first runs a backward BFS
// from s over the live in-edges to depth D = (k-1)/2 and stamps
// block[w] = dist(w -> s) for every vertex it reaches. Unreached vertices
// read the floor D+1, or k when the BFS ran out of vertices first (nothing
// else reaches s). dist(w -> s) ignores the stack, so it is a true lower
// bound on sd(w, s | S), and a negative query now prunes every subtree that
// cannot close within the budget instead of exhausting the k-hop DFS.
//
// Each vertex can be re-pushed only at strictly smaller depths (the prune
// condition with the updated block forces it), so a query pushes every
// vertex at most k times and runs in O(k*m) — Theorem 6; the seed adds one
// O(m) BFS.
//
// FindThroughEdge is the edge-rooted form of the same query: the query
// from u with its first hop fixed to v, which finds a constrained cycle
// through the edge (u, v). The maintainer's insertion checks and the
// top-down edge transversal (TDB-E) ask it.
type BlockDetector struct {
	adjacency
	k      int
	minLen int
	floor  int32 // block of a vertex the seed BFS left unstamped

	s *Scratch // onPath, blocked, stamp, epoch, path, seedQ

	// Filter, when set, runs the paper's BFS filter (Alg. 11) between the
	// seed and the DFS: a query answers "no" without searching when no
	// closed walk of length <= k passes through s (see closesWithin).
	// Pruned queries count in Stats.BFSPruned.
	Filter bool

	Stats Stats
}

// NewBlockDetector creates a block-based detector for cycles of length in
// [minLen, k] over the subgraph induced by active (nil = whole graph). The
// active slice is retained, not copied.
func NewBlockDetector(g digraph.Adjacency, k, minLen int, active []bool) *BlockDetector {
	return NewBlockDetectorWith(g, k, minLen, active, nil)
}

// NewBlockDetectorWith is NewBlockDetector borrowing the DFS buffers from s
// (nil allocates fresh scratch). See Scratch for the sharing rules.
func NewBlockDetectorWith(g digraph.Adjacency, k, minLen int, active []bool, s *Scratch) *BlockDetector {
	validate(g, k, minLen, active)
	return &BlockDetector{
		adjacency: maskAdjacency(g, active), k: k, minLen: minLen,
		s: checkScratch(s, g.NumVertices()),
	}
}

// NewBlockDetectorView is NewBlockDetectorWith over an active-adjacency
// working-graph view instead of a mask: the DFS and the Unblock propagation
// then iterate exactly the live edges (see digraph.ActiveAdjacency). The
// view is retained, so Activate/Deactivate calls between queries are
// visible to later queries.
func NewBlockDetectorView(view *digraph.ActiveAdjacency, k, minLen int, s *Scratch) *BlockDetector {
	validate(view.Base(), k, minLen, nil)
	return &BlockDetector{
		adjacency: viewAdjacency(view), k: k, minLen: minLen,
		s: checkScratch(s, view.Len()),
	}
}

func (d *BlockDetector) block(v VID) int {
	if d.s.stamp[v] == d.s.epoch {
		return int(d.s.blocked[v])
	}
	return int(d.floor)
}

func (d *BlockDetector) setBlock(v VID, b int) {
	d.s.stamp[v] = d.s.epoch
	d.s.blocked[v] = int32(b)
}

// noVertex marks a vertex query: one whose first hop is free.
const noVertex = ^VID(0)

// FindFrom returns one constrained cycle through s (start vertex first), or
// nil if none exists in the active subgraph.
func (d *BlockDetector) FindFrom(s VID) []VID {
	if !d.query(s, noVertex) {
		return nil
	}
	cyc := make([]VID, len(d.s.path))
	copy(cyc, d.s.path)
	return cyc
}

// HasCycleThrough reports whether any constrained cycle passes through s.
// Unlike FindFrom it does not materialize the found cycle, so repeated
// cover runs stay allocation-free.
func (d *BlockDetector) HasCycleThrough(s VID) bool {
	return d.query(s, noVertex)
}

// FindThroughEdge returns one constrained cycle through the edge (u, v) in
// the active subgraph, u first and v second, or nil if none exists. It is
// the query from u with the first hop fixed to v, in the BFS filter and in
// the DFS, so a simple path v ~> u closes the cycle. The search never
// traverses (u, v) itself, so the answer is the same whether or not the
// edge is in the graph yet. A self-loop or an inactive endpoint answers
// nil. The returned slice is the detector's scratch, valid until its next
// query.
func (d *BlockDetector) FindThroughEdge(u, v VID) []VID {
	if !d.query(u, v) {
		return nil
	}
	return d.s.path
}

// HasHopConstrainedCycle reports whether any cycle of length in [minLen, k]
// lies among the candidate vertices (nil = every vertex), borrowing the
// detector buffers and the peel mask from s (nil allocates). It queries the
// candidates in ID order and clears each one whose query answers "no" from
// the peel mask before the next query, so later queries search a smaller
// graph. The peel is exact: when the smallest-numbered vertex of a
// constrained cycle C is queried, only smaller vertices have been cleared,
// so all of C is still live and the query finds a cycle. candidates is only
// read.
func HasHopConstrainedCycle(g digraph.Adjacency, k, minLen int, candidates []bool, s *Scratch) bool {
	validate(g, k, minLen, candidates)
	s = checkScratch(s, g.NumVertices())
	live := s.peelMask(candidates, g.NumVertices())
	// A local value, not NewBlockDetectorWith's pointer: the detector does
	// not outlive the call, so it stays off the heap.
	det := BlockDetector{adjacency: maskAdjacency(g, live), k: k, minLen: minLen, s: s}
	for v, ok := range live {
		if !ok {
			continue
		}
		if det.HasCycleThrough(VID(v)) {
			return true
		}
		live[v] = false
	}
	return false
}

// query runs the detector from s, leaving a found cycle in d.s.path. An
// edge-rooted query names its fixed first hop; a vertex query passes
// noVertex. An edge-rooted query answers "no" before seeding when first
// has no out-edge: then no path leaves it.
func (d *BlockDetector) query(s, first VID) bool {
	d.Stats.Queries++
	if !d.startActive(s) {
		return false
	}
	if first != noVertex && (first == s || !d.startActive(first) || len(d.out(first)) == 0) {
		return false
	}
	d.s.epoch++
	if d.s.epoch == 0 { // uint32 wraparound: invalidate all stamps
		for i := range d.s.stamp {
			d.s.stamp[i] = 0
		}
		d.s.epoch = 1
	}
	ball := d.seed(s)
	if d.Filter && !d.closesWithin(s, first, ball) {
		d.Stats.BFSPruned++
		return false
	}
	d.s.onPath.nextEpoch()
	d.s.path = d.s.path[:0]
	d.s.path = append(d.s.path, s)
	d.s.onPath.set(s)
	d.Stats.Pushes++
	var found bool
	if first == noVertex {
		found = d.search(s, s, 0)
	} else if 1+d.block(first) <= d.k { // the barrier prune of the first hop
		d.s.path = append(d.s.path, first)
		d.s.onPath.set(first)
		d.Stats.Pushes++
		found = d.search(s, first, 1)
	}
	if found {
		d.Stats.CyclesFound++
	}
	return found
}

// seed stamps block[w] = dist(w -> s) for every vertex within D = (k-1)/2
// backward hops of s, sets the floor the unstamped vertices read, and
// returns the number of vertices it stamped (s included). The queue holds
// the ball level by level; after each pass q[lo:] is the deepest level
// reached.
func (d *BlockDetector) seed(s VID) int {
	depth := (d.k - 1) / 2
	d.setBlock(s, 0)
	q := append(d.s.seedQ[:0], s)
	lo := 0
	for dist := 1; dist <= depth && lo < len(q); dist++ {
		hi := len(q)
		for _, u := range q[lo:hi] {
			for _, v := range d.in(u) {
				d.Stats.EdgeScans++
				if (d.active != nil && !d.active[v]) || d.s.stamp[v] == d.s.epoch {
					continue
				}
				d.setBlock(v, dist)
				q = append(q, v)
			}
		}
		lo = hi
	}
	if lo == len(q) {
		d.floor = int32(d.k) // the ball is everything that reaches s
	} else {
		d.floor = int32(depth + 1)
	}
	d.s.seedQ = q[:0]
	return len(q)
}

// closesWithin is the paper's BFS filter (Alg. 11) read off the seeded
// ball: it reports whether a closed walk of length <= k passes through s
// (through the edge (s, first) on an edge-rooted query). A forward BFS
// from s over the live out-edges, to depth k-D, stops at the first vertex
// the seed stamped; s itself counts as stamped, except through a
// self-loop. An edge-rooted query's first level is first alone. Every
// meet closes a walk of at most (k-D) + D = k hops. If the shortest closed
// walk has length L <= k, its vertex at position max(L-D, 1) lies in the
// ball within k-D forward hops, so the test is exact. The shortest closed
// walk is a simple cycle, so a false answer proves no cycle of length
// <= k passes through s (or the edge); a true answer may stand for a
// 2-cycle the search then rejects (the paper's Example 2). The BFS marks
// its visits in onPath and queues in seedQ.
func (d *BlockDetector) closesWithin(s, first VID, ball int) bool {
	if ball == 1 && d.floor == int32(d.k) {
		return false // the seed ran out: nothing reaches s
	}
	d.s.onPath.nextEpoch()
	d.s.onPath.set(s)
	q := append(d.s.seedQ[:0], s)
	met := false
	lo, dist := 0, 1
	if first != noVertex {
		d.s.onPath.set(first)
		d.Stats.BFSVisited++
		q = append(q, first)
		lo, dist = 1, 2
	}
levels:
	for ; dist <= d.k-(d.k-1)/2 && lo < len(q); dist++ {
		hi := len(q)
		for _, u := range q[lo:hi] {
			for _, w := range d.out(u) {
				d.Stats.EdgeScans++
				// On the view path every scanned w is live; only the mask
				// filters.
				if d.active != nil && !d.active[w] {
					continue
				}
				if d.s.stamp[w] == d.s.epoch && (w != s || u != s) {
					met = true
					break levels
				}
				if d.s.onPath.get(w) {
					continue
				}
				d.s.onPath.set(w)
				d.Stats.BFSVisited++
				q = append(q, w)
			}
		}
		lo = hi
	}
	d.s.seedQ = q[:0]
	return met
}

func (d *BlockDetector) search(s, u VID, depth int) bool {
	pess := d.k - depth + 1
	if u != s {
		// Pessimistic bound, valid if this subtree fails (Alg. 9 line 3).
		d.setBlock(u, pess)
	}
	for _, w := range d.out(u) {
		d.Stats.EdgeScans++
		if w == s {
			if depth+1 >= d.minLen {
				return true
			}
			// Rejected short cycle (u -> s is a 2-cycle edge, only possible
			// at depth 1 with minLen=3): u still reaches s in 1 hop. Record
			// the fact now; the transitive repair happens at pop time below.
			d.setBlock(u, 1)
			continue
		}
		// On the view path every scanned w is live; only the mask filters.
		if (d.active != nil && !d.active[w]) || d.s.onPath.get(w) {
			continue
		}
		if depth+1 > d.k-1 {
			continue
		}
		if depth+1+d.block(w) > d.k {
			continue // barrier prune (Alg. 9 line 13)
		}
		d.s.path = append(d.s.path, w)
		d.s.onPath.set(w)
		d.Stats.Pushes++
		if d.search(s, w, depth+1) {
			return true
		}
		d.s.path = d.s.path[:len(d.s.path)-1]
		d.s.onPath.unset(w)
	}
	// Pop-time repair (deviation from Alg. 9, documented in DESIGN.md):
	// if a rejected 2-cycle proved a short return path from u, blocks set
	// inside u's subtree — while u was unavailable on the stack — may
	// overestimate now that u is leaving the stack. Propagating the relaxed
	// bound transitively over in-edges restores the invariant. Doing this
	// only at rejection time (as in the paper's line 7) is too early: it
	// cannot repair blocks that are assigned later in the subtree.
	if u != s && d.block(u) < pess {
		d.unblock(u, d.block(u))
	}
	return false
}

// unblock lowers block[u] to l and relaxes in-neighbors transitively
// (Alg. 10). Lowering a block is always safe: blocks are lower bounds.
func (d *BlockDetector) unblock(u VID, l int) {
	d.Stats.Unblocks++
	d.setBlock(u, l)
	for _, v := range d.in(u) {
		if (d.active != nil && !d.active[v]) || d.s.onPath.get(v) {
			continue
		}
		if d.block(v) > l+1 {
			d.unblock(v, l+1)
		}
	}
}
