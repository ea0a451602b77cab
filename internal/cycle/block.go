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
// bound set at push time would wrongly suppress longer cycles through u. At
// MinLen > 3 a cycle closing at depth d < MinLen-1 is rejected the same
// way, and then every stack vertex at depth i >= 1 provably reaches s in
// d-i+1 hops along the stack: each one's bound is lowered to that, and
// repaired transitively when it pops.
//
// Distance-seeded barriers (deviation from Alg. 9, DESIGN.md §2): where the
// paper starts every query at block[u] = 0, query first runs a backward BFS
// from s over the live in-edges to depth D = max((k-1)/2, 1) and stamps
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
// through the edge (u, v). The maintainer's insertion checks ask it;
// HasCycleThroughEdge, its yes/no form, is the top-down edge transversal's
// (TDB-E) accept test.
//
// With Filter set, every query first runs the meet (closesWithin), a
// linear-time bidirectional BFS. On the yes/no queries it is tagged and
// exact for cycles of length in [3, k], and at MinLen <= 3 they answer
// from it alone, with no DFS.
type BlockDetector struct {
	adjacency
	k      int
	minLen int
	floor  int32 // block of a vertex the seed BFS left unstamped
	tagged bool  // the query's meet carries tags: s has a 2-cycle partner
	hops   []VID // the query's first hops: a row of s, or hop[:]
	hop    [1]VID
	// The ball's deepest level in the seed's queues: seedQ[rim:ball] and,
	// on a tagged query, seedQ2[rim2:ball2]. The meet keeps them.
	rim, ball, rim2, ball2 int

	s *Scratch // onPath, blocked, stamp, epoch, path, seedQ, seedQ2, back, fwd

	// Filter, when set, runs the meet between the seed and the DFS
	// (closesWithin, the paper's BFS filter, Alg. 11). On the yes/no
	// queries the meet is tagged and exact: HasCycleThrough and
	// HasCycleThroughEdge answer "no" without searching when no cycle of
	// length in [max(MinLen, 3), k] passes through s, and at MinLen <= 3
	// answer "yes" from the meet as well. FindFrom and FindThroughEdge run
	// the plain meet, which proves only that no closed walk of length <= k
	// passes through s, and then the DFS. Every "no" from a meet counts
	// in Stats.BFSPruned.
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
	if !d.query(s, noVertex, true) {
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
	return d.query(s, noVertex, false)
}

// FindThroughEdge returns one constrained cycle through the edge (u, v) in
// the active subgraph, u first and v second, or nil if none exists. It is
// the query from u with the first hop fixed to v, in the meet and in the
// DFS, so a simple path v ~> u closes the cycle. The search never
// traverses (u, v) itself, so the answer is the same whether or not the
// edge is in the graph yet. A self-loop or an inactive endpoint answers
// nil. The returned slice is the detector's scratch, valid until its next
// query.
func (d *BlockDetector) FindThroughEdge(u, v VID) []VID {
	if !d.query(u, v, true) {
		return nil
	}
	return d.s.path
}

// HasCycleThroughEdge reports whether any constrained cycle of the active
// subgraph passes through the edge (u, v): FindThroughEdge without
// materializing the cycle.
func (d *BlockDetector) HasCycleThroughEdge(u, v VID) bool {
	return d.query(u, v, false)
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

// query runs the detector from s, leaving a found cycle in d.s.path when
// find is set. An edge-rooted query names its fixed first hop; a vertex
// query passes noVertex. An edge-rooted query answers "no" before seeding
// when first has no out-edge: then no path leaves it. A query that must
// find a cycle runs the DFS after any meet, so its meet stays the plain,
// untagged one: on the maintainer's write streams the tags cost its
// positive queries more than their sharper "no" saved (DESIGN.md §2).
func (d *BlockDetector) query(s, first VID, find bool) bool {
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
	ball := d.seed(s, first, !find)
	if d.Filter {
		if ball == 0 || !d.closesWithin(s) {
			d.Stats.BFSPruned++
			return false
		}
		if !find && d.minLen <= 3 { // the meet is exact (see closesWithin)
			d.Stats.CyclesFound++
			return true
		}
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

// seed stamps block[w] = dist(w -> s) for every vertex within
// D = max((k-1)/2, 1) backward hops of s, sets the floor the unstamped
// vertices read, and returns the number of vertices it stamped (s
// included). The queue holds the ball level by level; after each pass
// q[lo:] is the deepest level reached.
//
// With Filter set, on a query that wants the meet exact (a yes/no query;
// one that must return a cycle runs the DFS after any meet), and at
// MinLen >= 3, the seed also tags the ball for the meet (see Tags) once
// firstHops finds that s has a partner: back[w] then keeps w's up to two
// nearest distinct last hops into s. A partner in-neighbor of s takes its
// own hop as its tag, every other one the safe tag. A vertex takes its
// second tag at most once, on a level no nearer than its first, and is
// then queued again, in q2, to pass that tag on; so every ball vertex is
// expanded at most twice. The block of w is the level of its first tag,
// as without tags. Without a partner every tag is safe, and the query is
// untagged (d.tagged false): neither side records a tag, and the meet is
// the paper's plain one.
//
// A filtered seed returns 0, before searching past the first level, when
// s's own rows already rule out every cycle (see firstHops).
func (d *BlockDetector) seed(s, first VID, exact bool) int {
	depth := max((d.k-1)/2, 1)
	d.setBlock(s, 0)
	stamp, blocked, epoch, active := d.s.stamp, d.s.blocked, d.s.epoch, d.active
	q := append(d.s.seedQ[:0], s)
	scans := int64(0)
	for _, v := range d.in(s) {
		scans++
		if (active != nil && !active[v]) || stamp[v] == epoch {
			continue
		}
		stamp[v], blocked[v] = epoch, 1
		q = append(q, v)
	}
	d.Stats.EdgeScans += scans
	scans = 0
	d.tagged = false
	if d.Filter && (len(q) == 1 || !d.firstHops(s, first, q[1:], exact)) {
		d.s.seedQ = q[:0]
		return 0
	}
	lo := 1
	d.rim2, d.ball2 = 0, 0
	if d.tagged {
		q, lo = d.seedTagged(s, depth, q)
	} else {
		for dist := 2; dist <= depth && lo < len(q); dist++ {
			hi := len(q)
			for _, u := range q[lo:hi] {
				for _, v := range d.in(u) {
					scans++
					if (active != nil && !active[v]) || stamp[v] == epoch {
						continue
					}
					stamp[v], blocked[v] = epoch, int32(dist)
					q = append(q, v)
				}
			}
			lo = hi
		}
		d.Stats.EdgeScans += scans
	}
	d.rim, d.ball = lo, len(q)
	// An empty last level means the BFS ran out of vertices before
	// depth D.
	if lo == len(q) {
		d.floor = int32(d.k) // the ball is everything that reaches s
	} else {
		d.floor = int32(depth + 1)
	}
	d.s.seedQ = q[:0]
	return len(q)
}

// seedTagged is the seed's BFS past the first level on a tagged query. It
// continues q, the ball so far, and returns it with the start of its
// deepest level. A second tag never stamps a vertex (its first tag's pass,
// on a level no later, did), so that level holds first tags only.
func (d *BlockDetector) seedTagged(s VID, depth int, q []VID) ([]VID, int) {
	stamp, blocked, epoch, active, back := d.s.stamp, d.s.blocked, d.s.epoch, d.active, d.s.back
	q2 := d.s.seedQ2[:0]
	scans := int64(0)
	lo, lo2 := 1, 0
	for dist := 2; dist <= depth && (lo < len(q) || lo2 < len(q2)); dist++ {
		hi, hi2 := len(q), len(q2)
		// The level's first tags, then its second tags.
		for i := lo; i < hi+hi2-lo2; i++ {
			u, t := VID(0), VID(0)
			if i < hi {
				u = q[i]
				t = back[u][0]
			} else {
				u = q2[lo2+i-hi]
				t = back[u][1]
			}
			for _, v := range d.in(u) {
				scans++
				if active != nil && !active[v] {
					continue
				}
				if stamp[v] != epoch {
					stamp[v], blocked[v] = epoch, int32(dist)
					q = append(q, v)
					back[v] = tagSet{t, noVertex}
				} else if back[v].add(t, s) {
					q2 = append(q2, v)
				}
			}
		}
		lo, lo2 = hi, hi2
	}
	d.Stats.EdgeScans += scans
	d.rim2, d.ball2 = lo2, len(q2)
	d.s.seedQ2 = q2[:0]
	return q, lo
}

// firstHops marks in onPath the live first hops of s (first alone, or
// every live out-neighbor of s): they are the first level of the meet's
// forward BFS, which closesWithin continues. At MinLen >= 3 it also finds
// the 2-cycle partners of s, the first hops that level (the ball's first
// level) holds; with exact set, d.tagged records whether there is one,
// and if so it tags level: a partner with its own hop, every other
// in-neighbor with the safe tag. It returns false when s's own rows rule
// out every cycle: s has no live first hop, or (for cycles of length
// >= 3, which leave s by one hop and return by another) its one live
// in-neighbor is its one live first hop.
func (d *BlockDetector) firstHops(s, first VID, level []VID, exact bool) bool {
	stamp, epoch, active := d.s.stamp, d.s.epoch, d.active
	hops, live := d.out(s), 0
	if first != noVertex {
		d.hop[0] = first
		hops = d.hop[:]
	} else {
		d.Stats.EdgeScans += int64(len(hops))
	}
	d.hops = hops
	d.s.onPath.nextEpoch()
	seen, cur := d.s.onPath.stamp, d.s.onPath.cur
	seen[s] = cur
	partner := false
	for _, a := range hops {
		if (active != nil && !active[a]) || seen[a] == cur {
			continue
		}
		seen[a] = cur
		live++
		// Only s and level are stamped yet.
		partner = partner || stamp[a] == epoch // s -> a -> s
	}
	partner = partner && d.minLen >= 3
	d.tagged = partner && exact
	if live == 0 || partner && live == 1 && len(level) == 1 {
		return false
	}
	if d.tagged {
		// A partner tags itself, every other in-neighbor is safe; s is
		// safe and full on both sides, so neither ever tags it.
		back, fwd := d.s.tagTables()
		back[s], fwd[s] = tagSet{s, noVertex}, tagSet{s, noVertex}
		for _, v := range level {
			t := s
			if seen[v] == cur {
				t = v
			}
			back[v] = tagSet{t, noVertex}
		}
	}
	return true
}

// Tags. The meet labels every path out of s by its first hop and every
// path into s by its last hop. A cycle through s of length >= 3 leaves
// by one hop and returns by another, so a path s -> a ~> w and a path
// w ~> b -> s close such a cycle exactly when a != b. Only a 2-cycle
// partner of s (a vertex both after and before s) can be both a first
// and a last hop, so every other hop carries one shared safe tag, s
// itself, which never equals a tag of the other side. A tagSet holds a
// vertex's tags, nearest first; noVertex marks an empty slot.
type tagSet [2]VID

// add records t as the second tag and reports whether it did: only a set
// holding one tag, a partner's, takes a second, distinct one. A safe
// first tag already meets every tag of the other side, so it fills the
// set.
func (ts *tagSet) add(t, safe VID) bool {
	if ts[1] != noVertex || ts[0] == safe || ts[0] == t {
		return false
	}
	ts[1] = t
	return true
}

// meets reports whether a path out of s tagged t and one of the paths
// into s whose tags the set holds leave and return by different hops.
func (ts tagSet) meets(t, safe VID) bool {
	return t == safe || ts[0] != t || ts[1] != noVertex
}

// meetsSet is meets for every tag of the other side's set o.
func (ts tagSet) meetsSet(o tagSet, safe VID) bool {
	return ts.meets(o[0], safe) || o[1] != noVertex && ts.meets(o[1], safe)
}

// closesWithin is the meet, the paper's BFS filter (Alg. 11). Untagged
// (plainMeet) it reports whether a closed walk of length <= k passes
// through s (through the edge (s, first) on an edge-rooted query), which
// is exact when every tag is safe: at MinLen 2, or when s has no partner.
// Tagged (taggedMeet) it is exact for cycles of length in [3, k]: it
// reports whether such a cycle passes through s. A forward BFS from s
// over the live out-edges, to depth k-D, carries up to two nearest
// distinct first-hop tags per vertex in fwd, as the seed does backward,
// and stops at the first ball vertex where a forward tag differs from one
// of the vertex's backward tags. An edge-rooted query's first level is
// first alone. Neither side enters s.
// The last level is only probed, never stored, and from whichever side
// holds fewer vertices: the forward BFS's deepest stored level probes its
// out-edges against the ball, or the ball's deepest level, the rim, probes
// its in-edges against the forward BFS (backProbe). Both close walks of
// at most k hops, and both complete the same split of k into forward and
// backward hops.
//
// A meet proves a cycle: the tags differ, so the first hop a and the last
// hop b differ, and the walk a ~> w ~> b of at most (k-D-1) + (D-1) = k-2
// hops avoids s. Its shortest path closes a simple cycle s -> a ~> b -> s
// of length in [3, k]. Every such cycle C = s, c_1, ..., c_{L-1} produces
// a meet at c_j, j = max(L-D, 1), which lies within j <= k-D forward and
// L-j <= D backward hops of s. Say w = c_j's nearest forward tag is f and
// its nearest backward tag is b. If either is safe or they differ, they
// meet. Otherwise one of C's own tags differs from f = b, since C's hops
// differ, and the set on that side holds a second tag no farther than
// C's, so within the BFS depth, that differs from f. So a "no" proves
// that no cycle of length in [3, k] passes through s, and at MinLen <= 3
// a "yes" proves that one does. Each vertex takes at most two tags per
// side, so the meet is O(m), like the untagged filter. The BFS marks its
// visits in onPath and queues its levels in seedQ and seedQ2 behind the
// ball, which the rim probe still reads.
func (d *BlockDetector) closesWithin(s VID) bool {
	if !d.tagged {
		return d.plainMeet(s)
	}
	return d.taggedMeet(s)
}

// taggedMeet is closesWithin for a tagged query. The first level is the
// first hops firstHops marked, each tagged here: a partner (a first hop
// the ball holds at distance 1) with itself, any other with the safe tag.
// Later levels are queued behind the ball, first tags in seedQ and second
// tags in seedQ2.
func (d *BlockDetector) taggedMeet(s VID) bool {
	stamp, epoch, back, fwd, active := d.s.stamp, d.s.epoch, d.s.back, d.s.fwd, d.active
	seen, cur := d.s.onPath.stamp, d.s.onPath.cur
	q, q2 := d.s.seedQ[:d.ball], d.s.seedQ2[:d.ball2]
	scans, visited := int64(0), int64(0)
	met := false
	for _, a := range d.hops {
		scans++
		if (active != nil && !active[a]) || a == s {
			continue
		}
		t := s
		if stamp[a] == epoch && back[a][0] == a {
			t = a
		}
		fwd[a] = tagSet{t, noVertex}
		q = append(q, a)
		visited++
		if stamp[a] == epoch && back[a].meets(t, s) {
			met = true
			break
		}
	}
	last := d.k - max((d.k-1)/2, 1)
	lo, lo2 := d.ball, d.ball2
levels:
	for dist := 2; !met && dist <= last && (lo < len(q) || lo2 < len(q2)); dist++ {
		hi, hi2 := len(q), len(q2)
		if dist == last && d.ball-d.rim+d.ball2-d.rim2 < hi-lo+hi2-lo2 {
			met = d.backProbe(s, q[d.rim:d.ball], q2[d.rim2:d.ball2], true)
			break
		}
		// The level's first tags, then its second tags.
		for i := lo; i < hi+hi2-lo2; i++ {
			u, t := VID(0), VID(0)
			if i < hi {
				u = q[i]
				t = fwd[u][0]
			} else {
				u = q2[lo2+i-hi]
				t = fwd[u][1]
			}
			for _, w := range d.out(u) {
				scans++
				// On the view path every scanned w is live; only the mask
				// filters.
				if active != nil && !active[w] {
					continue
				}
				if dist < last {
					switch {
					case seen[w] != cur:
						seen[w] = cur
						fwd[w] = tagSet{t, noVertex}
						q = append(q, w)
					case fwd[w].add(t, s):
						q2 = append(q2, w)
					default:
						continue
					}
					visited++
				}
				if stamp[w] == epoch && w != s && back[w].meets(t, s) {
					met = true
					break levels
				}
			}
		}
		lo, lo2 = hi, hi2
	}
	d.Stats.EdgeScans += scans
	d.Stats.BFSVisited += visited
	d.s.seedQ, d.s.seedQ2 = q[:0], q2[:0]
	return met
}

// plainMeet is closesWithin for an untagged query, where every tag is
// safe: the paper's filter, a forward BFS from the first hops that stops
// at the first ball vertex. Its levels are queued behind the ball in
// seedQ.
func (d *BlockDetector) plainMeet(s VID) bool {
	stamp, epoch, active := d.s.stamp, d.s.epoch, d.active
	seen, cur := d.s.onPath.stamp, d.s.onPath.cur
	q := d.s.seedQ[:d.ball]
	scans, visited := int64(0), int64(0)
	met := false
	for _, a := range d.hops {
		scans++
		if (active != nil && !active[a]) || a == s {
			continue
		}
		q = append(q, a)
		visited++
		if stamp[a] == epoch {
			met = true
			break
		}
	}
	last := d.k - max((d.k-1)/2, 1)
	lo := d.ball
levels:
	for dist := 2; !met && dist <= last && lo < len(q); dist++ {
		hi := len(q)
		if dist == last && d.ball-d.rim < hi-lo {
			met = d.backProbe(s, q[d.rim:d.ball], nil, false)
			break
		}
		for _, u := range q[lo:hi] {
			for _, w := range d.out(u) {
				scans++
				if active != nil && !active[w] {
					continue
				}
				if stamp[w] == epoch && w != s {
					met = true
					break levels
				}
				if dist < last && seen[w] != cur {
					seen[w] = cur
					visited++
					q = append(q, w)
				}
			}
		}
		lo = hi
	}
	d.Stats.EdgeScans += scans
	d.Stats.BFSVisited += visited
	d.s.seedQ = q[:0]
	return met
}

// backProbe is the meet's last step taken from the ball's side: instead
// of probing the out-edges of the forward BFS's deepest level against the
// ball, it probes the in-edges of the rim (the ball vertices that took a
// tag on its deepest level, first or second) against the forward BFS.
// Either way a meet closes a walk of at most k hops. A tagged probe
// meets when a forward vertex's tags and the rim vertex's tags hold a
// pair that leave and return by different hops: the rim vertex's whole
// set, not only its tag of the deepest level, which is sound, and
// complete because the tags that arrive one level past the ball all come
// from the rim.
func (d *BlockDetector) backProbe(s VID, first, second []VID, tagged bool) bool {
	seen, cur, back, fwd := d.s.onPath.stamp, d.s.onPath.cur, d.s.back, d.s.fwd
	scans := int64(0)
	met := false
probe:
	for i := 0; i < len(first)+len(second); i++ {
		x := VID(0)
		if i < len(first) {
			x = first[i]
		} else {
			x = second[i-len(first)]
		}
		for _, y := range d.in(x) {
			scans++
			// Only live vertices carry forward marks; s is marked too.
			if seen[y] != cur || y == s {
				continue
			}
			if !tagged || fwd[y].meetsSet(back[x], s) {
				met = true
				break probe
			}
		}
	}
	d.Stats.EdgeScans += scans
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
			// Rejected short cycle (at minLen 3 only a 2-cycle edge u -> s
			// at depth 1): every stack vertex path[i] still reaches s in
			// depth-i+1 hops along the stack. Record the fact now; the
			// transitive repair happens at each one's pop below.
			for i := depth; i >= 1; i-- {
				if p := d.s.path[i]; d.block(p) > depth-i+1 {
					d.setBlock(p, depth-i+1)
				}
			}
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
