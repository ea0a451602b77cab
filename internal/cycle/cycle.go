// Package cycle implements the constrained-cycle detection primitives the
// cover algorithms are built on:
//
//   - PlainDetector: the paper's FindCycle (Alg. 5), a bounded DFS that
//     returns one constrained cycle through a start vertex, used by the
//     unoptimized top-down cover (TDB) and as the tests' reference.
//   - BlockDetector: the paper's NodeNecessary + Unblock (Alg. 9-10), the
//     block/barrier-based detector with O(k*m) worst-case time per query,
//     used by TDB+, TDB++, BUR and BUR+ (FindFrom returns the plain DFS's
//     first cycle). With Filter set every query first runs the
//     tagged meet, the paper's BFS filter (Alg. 11) made exact: a
//     bidirectional BFS over the detector's own backward distance seed in
//     which each vertex carries up to two nearest distinct first hops out
//     of (or last hops into) the vertex, so that a meet proves a cycle of
//     length in [3, k] and no meet proves there is none, in O(m). At
//     MinLen <= 3 the yes/no queries (HasCycleThrough, HasCycleThroughEdge)
//     answer from the meet alone, with no DFS; longer MinLen runs the DFS
//     after a meet, and FindFrom and FindThroughEdge, which must return a
//     cycle, run the plain (untagged) meet and then the DFS. TDB++, the
//     cover verifier, TDB-E and the dynamic maintainer turn it on. The
//     edge-rooted
//     forms fix the query's first hop to ask about one edge: the
//     maintainer's insertion checks and the top-down edge transversal
//     (TDB-E) ask them.
//   - HasHopConstrainedCycle: the whole-graph check, block-detector queries
//     in vertex order over an active mask that peels every vertex whose
//     query answered "no".
//   - Enumerator: a bounded enumeration of all constrained cycles, used as a
//     test oracle and by the DARC baseline.
//
// All detectors operate on an immutable digraph.Graph plus either an
// optional active-vertex mask (O(1) activation, O(full degree) scans) or a
// digraph.ActiveAdjacency working-graph view (O(deg) activation, scans
// proportional to the LIVE degree) — the cover algorithms use the view on
// graphs of every density and the mask only beyond the view's int32 edge
// limit; see DESIGN.md §7. Their O(n) working state lives in a Scratch that
// can be borrowed from a per-graph ScratchPool, making repeated covers over
// the same graph allocation-free (see Scratch).
//
// Cycle-length conventions follow the paper: a cycle's length is its number
// of vertices (= edges); self-loops never count (the graph builder drops
// them); cycles of length 2 (bidirectional edges) are excluded by default
// (MinLen = 3) and included when MinLen = 2 (the paper's Table IV variant).
package cycle

import (
	"fmt"

	"tdb/internal/digraph"
)

// VID aliases digraph.VID for brevity.
type VID = digraph.VID

// DefaultMinLen is the minimum cycle length of the paper's core problem:
// self-loops and 2-cycles are not considered cycles.
const DefaultMinLen = 3

// Stats aggregates work counters across detector queries. Counters are
// plain ints — NOT atomics — under a single-writer discipline: each
// detector instance is owned by one goroutine and counts into its
// own Stats, and parallel callers (the SCC-partitioned solver) merge the per-worker values into the run's aggregate with Add
// under their own synchronization (a mutex around the merge, or a
// post-Wait fold). Never share one Stats value between concurrently
// querying instances.
type Stats struct {
	Queries int64 // detector invocations
	// Pushes counts DFS stack pushes. A filtered block-detector query the
	// tagged meet answers (every "no", and every yes/no "yes" at
	// MinLen <= 3) pushes nothing.
	Pushes    int64
	EdgeScans int64 // adjacency entries examined
	// Unblocks counts Unblock propagation steps (block detector only);
	// like Pushes, they happen only in a DFS.
	Unblocks    int64
	CyclesFound int64 // queries that found a constrained cycle
	// BFSVisited counts the tags the tagged meet's forward BFS records:
	// a vertex counts once per first-hop tag it takes (at most two), and
	// the last level, which is only probed against the ball, not at all.
	BFSVisited int64
	// BFSPruned counts the filtered queries a meet answered "no"
	// (BlockDetector.Filter): on a yes/no query no cycle of length in
	// [max(MinLen, 3), k] (in [2, k] at MinLen 2) passes through the
	// vertex or edge, on a finding query no closed walk of length <= k.
	BFSPruned int64
	// Batches is always 0. It is kept only because the benchmark
	// harness (perfbench) reads it.
	Batches int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.Pushes += o.Pushes
	s.EdgeScans += o.EdgeScans
	s.Unblocks += o.Unblocks
	s.CyclesFound += o.CyclesFound
	s.BFSVisited += o.BFSVisited
	s.BFSPruned += o.BFSPruned
}

func validate(g digraph.Adjacency, k, minLen int, active []bool) {
	if minLen < 2 {
		panic(fmt.Sprintf("cycle: minLen %d < 2", minLen))
	}
	if k < minLen {
		panic(fmt.Sprintf("cycle: hop constraint k=%d < minLen=%d", k, minLen))
	}
	if active != nil && len(active) != g.NumVertices() {
		panic(fmt.Sprintf("cycle: active mask length %d != n %d", len(active), g.NumVertices()))
	}
}

// Unconstrained returns the hop bound that makes a detector equivalent to
// the paper's "cycle cover without constraints" variant (Sec. VI-C): no
// simple cycle can be longer than n, so k = n removes the constraint.
func Unconstrained(g digraph.Adjacency) int {
	n := g.NumVertices()
	if n < DefaultMinLen {
		return DefaultMinLen
	}
	return n
}

// epochMark implements O(1)-reset boolean/integer maps over vertices.
// A slot is valid only when its stamp equals the current epoch.
type epochMark struct {
	stamp []uint32
	cur   uint32
}

func newEpochMark(n int) epochMark {
	return epochMark{stamp: make([]uint32, n), cur: 0}
}

// nextEpoch invalidates all marks in O(1) (amortized; a wraparound clears).
func (e *epochMark) nextEpoch() {
	e.cur++
	if e.cur == 0 { // wrapped: clear and restart
		for i := range e.stamp {
			e.stamp[i] = 0
		}
		e.cur = 1
	}
}

func (e *epochMark) set(v VID)      { e.stamp[v] = e.cur }
func (e *epochMark) unset(v VID)    { e.stamp[v] = e.cur - 1 }
func (e *epochMark) get(v VID) bool { return e.stamp[v] == e.cur }

// PlainDetector finds one constrained cycle through a start vertex with a
// bounded DFS (the paper's Alg. 5). Worst case O(n^k) per query; in practice
// it terminates at the first cycle found.
type PlainDetector struct {
	adjacency
	k      int
	minLen int

	s *Scratch // onPath, path

	// Cancelled, when non-nil, is the detector's stop poll, checked
	// periodically inside the DFS; a true return aborts the current query
	// (FindFrom then returns nil and WasAborted reports true). TDB's
	// cover loop feeds it from its context, since without it a single
	// worst-case O(n^k) query could outlive any caller-side timeout.
	Cancelled func() bool
	aborted   bool

	Stats Stats
}

// WasAborted reports whether the most recent query was cut short by the
// Cancelled poll; its nil result is then inconclusive.
func (d *PlainDetector) WasAborted() bool {
	return d.aborted
}

// NewPlainDetector creates a detector for cycles of length in [minLen, k]
// over the subgraph induced by active (nil = whole graph). The active slice
// is retained, not copied, so mask updates are visible to later queries.
func NewPlainDetector(g digraph.Adjacency, k, minLen int, active []bool) *PlainDetector {
	return NewPlainDetectorWith(g, k, minLen, active, nil)
}

// NewPlainDetectorWith is NewPlainDetector borrowing the DFS buffers from s
// (nil allocates fresh scratch). See Scratch for the sharing rules.
func NewPlainDetectorWith(g digraph.Adjacency, k, minLen int, active []bool, s *Scratch) *PlainDetector {
	validate(g, k, minLen, active)
	return &PlainDetector{
		adjacency: maskAdjacency(g, active), k: k, minLen: minLen,
		s: checkScratch(s, g.NumVertices()),
	}
}

// NewPlainDetectorView is NewPlainDetectorWith over an active-adjacency
// working-graph view instead of a mask: the DFS then iterates exactly the
// live edges (see digraph.ActiveAdjacency). The view is retained, so
// Activate/Deactivate calls between queries are visible to later queries.
func NewPlainDetectorView(view *digraph.ActiveAdjacency, k, minLen int, s *Scratch) *PlainDetector {
	validate(view.Base(), k, minLen, nil)
	return &PlainDetector{
		adjacency: viewAdjacency(view), k: k, minLen: minLen,
		s: checkScratch(s, view.Len()),
	}
}

// FindFrom returns one constrained cycle through s as a vertex sequence
// (start vertex first, no repetition of the start at the end), or nil if no
// constrained cycle through s exists in the active subgraph.
func (d *PlainDetector) FindFrom(s VID) []VID {
	if !d.query(s) {
		return nil
	}
	cyc := make([]VID, len(d.s.path))
	copy(cyc, d.s.path)
	return cyc
}

// HasCycleThrough reports whether any constrained cycle passes through s.
// Unlike FindFrom it does not materialize the found cycle, so repeated
// cover runs stay allocation-free.
func (d *PlainDetector) HasCycleThrough(s VID) bool {
	return d.query(s)
}

// query runs the detector, leaving a found cycle in d.s.path.
func (d *PlainDetector) query(s VID) bool {
	d.Stats.Queries++
	d.aborted = false
	if !d.startActive(s) {
		return false
	}
	d.s.onPath.nextEpoch()
	d.s.path = d.s.path[:0]
	d.s.path = append(d.s.path, s)
	d.s.onPath.set(s)
	d.Stats.Pushes++
	if d.search(s, s, 0) {
		d.Stats.CyclesFound++
		return true
	}
	return false
}

// search extends the current path (ending at u, with depth edges) by one
// vertex. It returns true as soon as a constrained cycle is found, leaving
// the cycle in d.s.path.
func (d *PlainDetector) search(s, u VID, depth int) bool {
	for _, w := range d.out(u) {
		d.Stats.EdgeScans++
		if d.Stats.EdgeScans%4096 == 0 && d.Cancelled != nil && d.Cancelled() {
			d.aborted = true
			return false
		}
		if w == s {
			if depth+1 >= d.minLen { // depth+1 <= k holds by the push bound
				return true
			}
			continue // cycle shorter than minLen (a 2-cycle): rejected
		}
		// On the view path every scanned w is live; only the mask filters.
		if (d.active != nil && !d.active[w]) || d.s.onPath.get(w) {
			continue
		}
		// A cycle through w would have length >= depth+2, so only descend
		// while depth+1 <= k-1.
		if depth+1 > d.k-1 {
			continue
		}
		d.s.path = append(d.s.path, w)
		d.s.onPath.set(w)
		d.Stats.Pushes++
		if d.search(s, w, depth+1) {
			return true
		}
		d.s.path = d.s.path[:len(d.s.path)-1]
		d.s.onPath.unset(w)
		if d.aborted {
			return false
		}
	}
	return false
}
