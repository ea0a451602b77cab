// Package dynamic maintains a hop-constrained cycle cover over a stream of
// edge insertions and deletions.
//
// The paper's motivating fraud workload is inherently dynamic — its
// reference [14] (Qiu et al., VLDB 2018) detects constrained cycles on
// dynamic e-commerce graphs in real time — but the paper itself only
// treats the static problem. This package extends it with the natural
// incremental scheme built from the same primitives:
//
//   - Invariant: the current graph minus the cover contains no constrained
//     cycle.
//   - InsertEdge(u, v): if u or v is already covered, every new cycle
//     (which necessarily passes through the new edge, hence through both u
//     and v) is covered; otherwise search for one constrained cycle through
//     the new edge in the uncovered graph and, if found, add one endpoint
//     to the cover — covering ALL cycles the insertion created.
//   - DeleteEdge(u, v): the invariant survives edge removal untouched, but
//     cover vertices may become redundant; Reminimize runs the paper's
//     minimal pruning pass (Alg. 7) on demand, restricted to the cover
//     vertices a deletion (or cover growth) can actually have affected.
//   - ApplyBatch: the batched form, which applies a whole batch's edge
//     changes first and then runs the deferred cycle-existence queries in
//     order.
//
// Storage is a CSR base + delta-buffer hybrid: a compacted immutable
// digraph.Graph carries the bulk of the edges, per-vertex sorted slices
// carry the insertions and deletions since the last compaction, and the
// deltas fold into a fresh CSR once they exceed a fraction of the base
// (and on Snapshot/Reminimize, which therefore run on flat arrays).
//
// Cost model: an insertion between uncovered endpoints runs one bounded
// meet-in-the-middle BFS over the uncovered region — O(min(m, edges
// within k-1 hops)), the same bound as the paper's BFS filter — whose
// shortest path, being simple, certifies the answer outright in all but
// the short-walk regime (a walk shorter than minLen-1, e.g. a 2-cycle
// under minLen=3). Only
// that ambiguous remainder falls through to an iterative, distance-pruned
// DFS whose explored states are capped; on cap the endpoint is covered
// conservatively, so validity never depends on the exponential tail.
// Reminimize is polynomial outright: it runs the paper's exact O(k·m)
// block-based detector per candidate on the compacted CSR.
package dynamic

import (
	"fmt"
	"slices"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
)

// VID aliases digraph.VID.
type VID = digraph.VID

// Compaction policy: fold the deltas into a fresh CSR once they hold at
// least compactMinDelta edges AND at least 1/compactFraction of the base.
// The second condition makes compactions geometrically spaced, so the
// total compaction work over a stream of N insertions is O(N + n·log N).
const (
	compactMinDelta = 1024
	compactFraction = 4
)

// Maintainer holds a dynamic directed graph and a valid hop-constrained
// cycle cover of it. It is not safe for concurrent use.
type Maintainer struct {
	k      int
	minLen int

	// CSR base + sorted per-vertex delta buffers. The live adjacency of u
	// is (base.Out(u) minus delOut[u]) union addOut[u]; the three sources
	// are individually sorted, so membership is a pair of binary searches
	// and traversal is a two-pointer merge.
	base   digraph.Adjacency
	n      int     // current vertex count, >= base.NumVertices()
	addOut [][]VID // edges inserted since compaction, absent from base
	addIn  [][]VID
	delOut [][]VID // tombstones over base edges
	delIn  [][]VID
	delta  int // adds + tombstones: compaction pressure
	m      int // live edge count

	covered []bool
	cover   int

	// Dirty-region tracking for Reminimize: a cover vertex can only have
	// become redundant if its witness cycle was destroyed, i.e. one of the
	// witness's edges was deleted or one of its vertices entered the
	// cover. Both event sites are recorded here; Reminimize then re-tests
	// only cover vertices within k hops of a recorded site. needFull
	// forces a whole-cover pass (fresh maintainers, seeded covers).
	dirty    []VID
	needFull bool

	// Scratch for the bounded searches (see search.go). Epoch-stamped
	// marks make stale state structurally impossible: every traversal
	// bumps its epoch, so nothing a previous search left behind — early
	// returns included — can leak into the next one.
	mark   []uint32 // forward-visited / DFS on-path stamps
	mepoch uint32
	bmark  []uint32 // backward-distance validity stamps
	bepoch uint32
	distB  []int32
	queue  []VID
	nextQ  []VID
	rowBuf []VID
	rows   [][]VID
	stack  []pathFrame

	// Compacted-CSR scratch, cached across Reminimize/ApplyBatch calls.
	remScratch *cycle.Scratch
	remActive  []bool

	// counters
	inserts, deletes, cycleChecks, coverAdds int64
	compactions                              int64
}

// New creates a Maintainer for cycles of length in [minLen, k] over an
// initially empty graph with n vertices.
func New(n, k, minLen int) *Maintainer {
	if minLen < 2 {
		panic(fmt.Sprintf("dynamic: minLen %d < 2", minLen))
	}
	if k < minLen {
		panic(fmt.Sprintf("dynamic: k=%d < minLen=%d", k, minLen))
	}
	return &Maintainer{
		k: k, minLen: minLen,
		base: new(digraph.Graph), n: n,
		addOut: make([][]VID, n), addIn: make([][]VID, n),
		delOut: make([][]VID, n), delIn: make([][]VID, n),
		covered:  make([]bool, n),
		needFull: true,
	}
}

// FromGraph creates a Maintainer seeded with an existing graph and an
// existing valid cover of it (e.g. computed by core.Compute). The graph is
// adopted as the CSR base without copying; the cover is trusted to be
// valid (use Verify from package verify to check it first if unsure) but
// is validated against the vertex range — a cover naming vertices the
// graph does not have cannot have come from it, and is reported as an
// error rather than a later index panic.
func FromGraph(g digraph.Adjacency, k, minLen int, cover []VID) (*Maintainer, error) {
	n := g.NumVertices()
	for _, v := range cover {
		if uint64(v) >= uint64(n) {
			return nil, fmt.Errorf("dynamic: cover vertex %d out of range (graph has %d vertices)", v, n)
		}
	}
	m := New(n, k, minLen)
	m.base = g
	m.m = g.NumEdges()
	for _, v := range cover {
		if !m.covered[v] {
			m.covered[v] = true
			m.cover++
		}
	}
	return m, nil
}

// K returns the hop constraint the maintainer covers up to.
func (m *Maintainer) K() int { return m.k }

// MinLen returns the minimum covered cycle length.
func (m *Maintainer) MinLen() int { return m.minLen }

// NumVertices returns the vertex count.
func (m *Maintainer) NumVertices() int { return m.n }

// Grow extends the vertex set to n (a no-op when the maintainer is already
// that large). New vertices start isolated and uncovered, so the cover
// invariant is untouched. This is what lets ID-labeled front ends intern
// vertices first seen mid-stream.
func (m *Maintainer) Grow(n int) {
	if n <= m.n {
		return
	}
	grow := n - m.n
	m.addOut = append(m.addOut, make([][]VID, grow)...)
	m.addIn = append(m.addIn, make([][]VID, grow)...)
	m.delOut = append(m.delOut, make([][]VID, grow)...)
	m.delIn = append(m.delIn, make([][]VID, grow)...)
	m.covered = append(m.covered, make([]bool, grow)...)
	m.n = n
}

// NumEdges returns the current edge count.
func (m *Maintainer) NumEdges() int { return m.m }

// CoverSize returns the current cover size.
func (m *Maintainer) CoverSize() int { return m.cover }

// Cover returns the current cover, ascending.
func (m *Maintainer) Cover() []VID {
	out := make([]VID, 0, m.cover)
	for v, c := range m.covered {
		if c {
			out = append(out, VID(v))
		}
	}
	return out
}

// Covered reports whether v is currently in the cover.
func (m *Maintainer) Covered(v VID) bool { return m.covered[v] }

// HasEdge reports whether the edge currently exists.
func (m *Maintainer) HasEdge(u, v VID) bool {
	if containsSorted(m.addOut[u], v) {
		return true
	}
	return m.inBase(u, v) && !containsSorted(m.delOut[u], v)
}

// inBase reports whether the edge exists in the compacted base (live or
// tombstoned).
func (m *Maintainer) inBase(u, v VID) bool {
	return int(u) < m.base.NumVertices() && digraph.HasArc(m.base, u, v)
}

// InsertEdge adds the edge (u, v), updating the cover if the insertion
// created uncovered constrained cycles. It returns the vertex added to the
// cover, or -1 when none was needed. Self-loops and duplicates are ignored
// (returning -1). Both endpoints must be < NumVertices (see Grow).
func (m *Maintainer) InsertEdge(u, v VID) int {
	if u == v || m.HasEdge(u, v) {
		return -1
	}
	m.inserts++
	m.addEdgeRaw(u, v)
	m.maybeCompact()

	// Every cycle created by this insertion passes through (u, v). If an
	// endpoint is covered, all of them already are.
	if m.covered[u] || m.covered[v] {
		return -1
	}
	m.cycleChecks++
	if !m.edgeCreatesCycle(u, v) {
		return -1
	}
	return int(m.coverEndpoint(u, v))
}

// DeleteEdge removes the edge (u, v) if present, reporting whether it
// existed. The cover stays valid; call Reminimize to shed vertices that the
// deletion made redundant.
func (m *Maintainer) DeleteEdge(u, v VID) bool {
	if !m.HasEdge(u, v) {
		return false
	}
	m.deletes++
	m.deleteEdgeRaw(u, v)
	m.maybeCompact()
	return true
}

// addEdgeRaw records the absent edge (u, v) in the delta layer: either by
// cancelling a base tombstone or by growing the add buffers.
func (m *Maintainer) addEdgeRaw(u, v VID) {
	if m.inBase(u, v) {
		m.delOut[u] = removeSorted(m.delOut[u], v)
		m.delIn[v] = removeSorted(m.delIn[v], u)
		m.delta--
	} else {
		m.addOut[u] = insertSorted(m.addOut[u], v)
		m.addIn[v] = insertSorted(m.addIn[v], u)
		m.delta++
	}
	m.m++
}

// deleteEdgeRaw removes the present edge (u, v): either by shrinking the
// add buffers or by tombstoning a base edge. The endpoints become dirty
// sites for the next Reminimize.
func (m *Maintainer) deleteEdgeRaw(u, v VID) {
	if containsSorted(m.addOut[u], v) {
		m.addOut[u] = removeSorted(m.addOut[u], v)
		m.addIn[v] = removeSorted(m.addIn[v], u)
		m.delta--
	} else {
		m.delOut[u] = insertSorted(m.delOut[u], v)
		m.delIn[v] = insertSorted(m.delIn[v], u)
		m.delta++
	}
	m.m--
	m.markDirty(u, v)
}

// markDirty records witness-destroying event sites for the next
// Reminimize. Once the set rivals the vertex count a full pass is cheaper
// than region tracking, so it collapses into the needFull flag instead of
// growing without bound on streams that never reminimize.
func (m *Maintainer) markDirty(sites ...VID) {
	if m.needFull {
		return
	}
	if len(m.dirty)+len(sites) > m.n {
		m.needFull = true
		m.dirty = m.dirty[:0]
		return
	}
	m.dirty = append(m.dirty, sites...)
}

// coverEndpoint covers the endpoint of (u, v) with the larger total
// degree — hubs tend to cover more future cycles (the bottom-up
// heuristic's insight) — and returns it.
func (m *Maintainer) coverEndpoint(u, v VID) VID {
	pick := u
	if m.degree(v) > m.degree(u) {
		pick = v
	}
	m.addCover(pick)
	return pick
}

// addCover puts v into the cover and records it as a dirty site: covering
// v may strip other cover vertices of their last witness cycle.
func (m *Maintainer) addCover(v VID) {
	m.covered[v] = true
	m.cover++
	m.coverAdds++
	m.markDirty(v)
}

// degree returns the live total degree of v.
func (m *Maintainer) degree(v VID) int {
	d := len(m.addOut[v]) + len(m.addIn[v]) - len(m.delOut[v]) - len(m.delIn[v])
	if int(v) < m.base.NumVertices() {
		d += m.base.OutDegree(v) + m.base.InDegree(v)
	}
	return d
}

// compactionDue reports whether the deltas have grown past the compaction
// policy's thresholds.
func (m *Maintainer) compactionDue() bool {
	return m.delta >= compactMinDelta && m.delta*compactFraction >= m.base.NumEdges()
}

// maybeCompact folds the deltas into a fresh CSR when a compaction is due.
func (m *Maintainer) maybeCompact() {
	if m.compactionDue() {
		m.compact()
	}
}

// compact rebuilds the CSR base from the surviving base edges plus the add
// buffers and clears the deltas. With empty deltas (and no Grow since) it
// returns the base as-is, which is what makes Snapshot cheap on a quiet
// maintainer.
func (m *Maintainer) compact() digraph.Adjacency {
	if m.delta == 0 && m.base.NumVertices() == m.n {
		return m.base
	}
	m.compactions++
	b := digraph.NewBuilder(m.n)
	// Base self-loops (possible when FromGraph adopted a KeepSelfLoops
	// graph) are preserved; they are never cycles (minLen >= 2) and every
	// traversal skips them structurally.
	b.KeepSelfLoops = true
	for u := 0; u < m.n; u++ {
		m.rowBuf = m.outInto(VID(u), m.rowBuf[:0])
		for _, w := range m.rowBuf {
			b.AddEdge(VID(u), w)
		}
		m.addOut[u] = m.addOut[u][:0]
		m.addIn[u] = m.addIn[u][:0]
		m.delOut[u] = m.delOut[u][:0]
		m.delIn[u] = m.delIn[u][:0]
	}
	m.delta = 0
	m.base = b.Build()
	return m.base
}

// Reminimize runs the paper's minimal pruning pass over the current cover:
// each candidate vertex is restored and dropped for good when no
// constrained cycle passes through it in the uncovered graph, decided by
// the scalar BFS filter (cheap sound prune) and the exact O(k·m)
// block-based detector on the compacted CSR. After the first full pass
// only DIRTY candidates are re-tested: cover vertices within k hops of a
// deleted edge or a vertex covered since — the only vertices whose witness
// cycle can have been destroyed. It returns the number of vertices
// removed.
func (m *Maintainer) Reminimize() int {
	defer func() {
		m.dirty = m.dirty[:0]
		m.needFull = false
	}()
	if m.cover == 0 || (!m.needFull && len(m.dirty) == 0) {
		return 0
	}
	g := m.compact()
	n := g.NumVertices()
	candidates := m.reminimizeCandidates(g)
	if len(candidates) == 0 {
		return 0
	}
	active := m.remActiveBuf(n)
	for v := 0; v < n; v++ {
		active[v] = !m.covered[v]
	}
	scr := m.remScratchFor(n)
	det := cycle.NewBlockDetectorWith(g, m.k, m.minLen, active, scr)
	filter := cycle.NewBFSFilterWith(g, m.k, active, scr)
	removed := 0
	for _, v := range candidates {
		m.cycleChecks++
		active[v] = true
		if filter.CanPrune(v) || !det.HasCycleThrough(v) {
			m.covered[v] = false
			m.cover--
			removed++
			continue // v leaves the cover, so it stays active
		}
		active[v] = false
	}
	return removed
}

// reminimizeCandidates returns the cover vertices to re-test, ascending:
// the whole cover on a full pass, otherwise the cover vertices within k
// hops (forward or backward) of a dirty site. When the dirty set rivals
// the graph the region BFS cannot pay for itself, so the pass goes full.
func (m *Maintainer) reminimizeCandidates(g digraph.Adjacency) []VID {
	n := g.NumVertices()
	out := make([]VID, 0, m.cover)
	if m.needFull || len(m.dirty)*4 >= n {
		for v := 0; v < n; v++ {
			if m.covered[v] {
				out = append(out, VID(v))
			}
		}
		return out
	}
	reach := make([]bool, n)
	m.markReachable(g, reach)
	for v := 0; v < n; v++ {
		if m.covered[v] && reach[v] {
			out = append(out, VID(v))
		}
	}
	return out
}

// markReachable marks every vertex within k hops of a dirty site, once
// following out-edges and once in-edges. A destroyed witness cycle leaves
// its surviving arc intact in the current graph, so the affected cover
// vertex is reachable from some dirty site along it within k-1 hops; the
// backward pass is kept for symmetry (it is cheap and strictly widens the
// candidate set, which is always sound).
func (m *Maintainer) markReachable(g digraph.Adjacency, reach []bool) {
	m.ensureScratch()
	for pass := 0; pass < 2; pass++ {
		mk := m.nextMark()
		q := m.queue[:0]
		for _, s := range m.dirty {
			if m.mark[s] != mk {
				m.mark[s] = mk
				reach[s] = true
				q = append(q, s)
			}
		}
		next := m.nextQ[:0]
		for d := 0; d < m.k && len(q) > 0; d++ {
			next = next[:0]
			for _, u := range q {
				row := g.Out(u)
				if pass == 1 {
					row = g.In(u)
				}
				for _, w := range row {
					if m.mark[w] != mk {
						m.mark[w] = mk
						reach[w] = true
						next = append(next, w)
					}
				}
			}
			q, next = next, q
		}
		m.queue, m.nextQ = q, next
	}
}

// remActiveBuf returns the cached n-sized mask buffer for compacted-CSR
// passes, reallocating only on growth.
func (m *Maintainer) remActiveBuf(n int) []bool {
	if cap(m.remActive) < n {
		m.remActive = make([]bool, n)
	}
	return m.remActive[:n]
}

// remScratchFor returns the cached cycle.Scratch for compacted-CSR passes,
// reallocating only when the vertex count changed.
func (m *Maintainer) remScratchFor(n int) *cycle.Scratch {
	if m.remScratch == nil || m.remScratch.Len() != n {
		m.remScratch = cycle.NewScratch(n)
	}
	return m.remScratch
}

// Snapshot freezes the current graph into an immutable digraph.Graph by
// compacting the deltas; with no changes since the last compaction it is
// free. The returned graph is shared with the maintainer but immutable:
// later updates accumulate in fresh deltas and never mutate it.
func (m *Maintainer) Snapshot() digraph.Adjacency {
	return m.compact()
}

// Stats returns operation counters: edge inserts, deletes, bounded cycle
// searches, and cover additions.
func (m *Maintainer) Stats() (inserts, deletes, cycleChecks, coverAdds int64) {
	return m.inserts, m.deletes, m.cycleChecks, m.coverAdds
}

// Compactions returns how many times the delta buffers were folded into a
// fresh CSR base.
func (m *Maintainer) Compactions() int64 { return m.compactions }

// sorted-slice primitives for the delta buffers.

func containsSorted(s []VID, v VID) bool {
	_, ok := slices.BinarySearch(s, v)
	return ok
}

func insertSorted(s []VID, v VID) []VID {
	i, ok := slices.BinarySearch(s, v)
	if ok {
		return s
	}
	return slices.Insert(s, i, v)
}

func removeSorted(s []VID, v VID) []VID {
	i, ok := slices.BinarySearch(s, v)
	if !ok {
		return s
	}
	return slices.Delete(s, i, i+1)
}
