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
//     vertices whose witness cycle a deletion (or cover growth) broke
//     (witness.go).
//   - ApplyBatch: the batched form, which applies a whole batch's edge
//     changes first and then runs the deferred cycle-existence queries in
//     order. ReplayBatches re-applies a logged tail of batches with the
//     cover vertices ApplyBatch added and Reminimize removed, searching
//     nothing (WAL replay): one sort of the tail's updates and one merge
//     into a fresh CSR, not one delta edit per update.
//
// Storage is a CSR base + delta-buffer hybrid: a compacted immutable
// digraph.Graph carries the bulk of the edges, per-vertex sorted slices
// carry the insertions and deletions since the last compaction, and the
// deltas fold into a fresh CSR once they exceed a fraction of the base
// (and on Snapshot/Reminimize, which therefore run on flat arrays). A
// compaction copies clean rows in bulk and merges only the rows with a
// delta.
//
// Cost model: an insertion between uncovered endpoints runs one bounded
// meet-in-the-middle BFS over the uncovered region — O(min(m, edges
// within k-1 hops)), the same bound as the paper's BFS filter — whose
// shortest path, being simple, certifies the answer outright in all but
// the short-walk regime (a walk shorter than minLen-1, e.g. a 2-cycle
// under minLen=3). Only
// that ambiguous remainder falls through to an iterative, distance-pruned
// DFS whose explored states are capped; on cap the endpoint is covered
// conservatively, so validity never depends on the exponential tail. A
// cycle the search finds becomes the covered endpoint's witness, at most k
// vertices plus as many index entries; a deletion costs a scan of the
// witnesses through its source, a cover addition one of the witnesses
// through the new vertex. Reminimize is polynomial outright: it runs the
// paper's exact O(k·m) block-based detector per re-tested vertex on the
// compacted CSR, and re-tests only the vertices whose witness broke, or
// that never had one (a seeded or replayed cover, a capped search).
package dynamic

import (
	"fmt"
	"slices"
	"time"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
)

// VID aliases digraph.VID.
type VID = digraph.VID

// Compaction policy: fold the deltas into a fresh CSR once they hold at
// least compactMinDelta edges AND at least 1/compactFraction of the base.
// The second condition makes compactions geometrically spaced: each
// compaction is an O(n+m) merge, so the total compaction work over a
// stream of N insertions is O(N + n·log N).
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

	// wit proves each cover vertex necessary with a witness cycle and
	// queues the ones whose proof broke or never existed, the only
	// vertices Reminimize re-tests (witness.go).
	wit witnessIndex

	// Scratch for the bounded searches (see search.go). Epoch-stamped
	// marks make stale state structurally impossible: every traversal
	// bumps its epoch, so nothing a previous search left behind — early
	// returns included — can leak into the next one.
	mark   []uint32 // forward-visited / DFS on-path stamps
	mepoch uint32
	bmark  []uint32 // backward-distance validity stamps
	bepoch uint32
	distB  []int32
	fpar   []VID // forward BFS parent, valid under mark
	bnext  []VID // backward BFS next hop toward the target, valid under bmark
	cyc    []VID // the cycle the last YES search found
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
	lastCompaction                           time.Duration
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
	m := &Maintainer{
		k: k, minLen: minLen,
		base: new(digraph.Graph), n: n,
		addOut: make([][]VID, n), addIn: make([][]VID, n),
		delOut: make([][]VID, n), delIn: make([][]VID, n),
		covered: make([]bool, n),
	}
	m.wit.grow(n)
	return m
}

// FromGraph creates a Maintainer seeded with an existing graph and an
// existing valid cover of it (e.g. computed by core.Compute). The graph is
// adopted as the CSR base without copying; the cover is trusted to be
// valid (use Verify from package verify to check it first if unsure) but
// is validated against the vertex range — a cover naming vertices the
// graph does not have cannot have come from it, and is reported as an
// error rather than a later index panic. Its vertices start without
// witnesses, so the first Reminimize re-tests the whole cover.
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
			m.wit.enqueue(v, retestUnknown)
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
	m.wit.grow(n)
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
	loc, _ := m.locate(u, v)
	return loc.live()
}

// edgeLoc says which storage layer holds an edge.
type edgeLoc uint8

const (
	locAbsent     edgeLoc = iota // in neither the base nor addOut
	locTombstoned                // a base edge with a tombstone in delOut
	locBase                      // a live base edge
	locAdded                     // in addOut, absent from the base
)

func (l edgeLoc) live() bool { return l == locBase || l == locAdded }

// locate finds the edge (u, v) with one search per layer it needs. pos is
// the edge's index, or its insertion point, in the out-row a raw edit of
// it changes: addOut[u] for locAbsent and locAdded, delOut[u] for the base
// locations.
func (m *Maintainer) locate(u, v VID) (loc edgeLoc, pos int) {
	pos, ok := slices.BinarySearch(m.addOut[u], v)
	if ok {
		return locAdded, pos
	}
	if !m.inBase(u, v) {
		return locAbsent, pos
	}
	if pos, ok = slices.BinarySearch(m.delOut[u], v); ok {
		return locTombstoned, pos
	}
	return locBase, pos
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
	if u == v {
		return -1
	}
	loc, pos := m.locate(u, v)
	if loc.live() {
		return -1
	}
	m.inserts++
	m.addEdgeRaw(u, v, loc, pos)
	m.maybeCompact()

	// Every cycle created by this insertion passes through (u, v). If an
	// endpoint is covered, all of them already are.
	if m.covered[u] || m.covered[v] {
		return -1
	}
	m.cycleChecks++
	found, cyc := m.edgeCreatesCycle(u, v)
	if !found {
		return -1
	}
	return int(m.coverEndpoint(u, v, cyc))
}

// DeleteEdge removes the edge (u, v) if present, reporting whether it
// existed. The cover stays valid; call Reminimize to shed vertices that the
// deletion made redundant.
func (m *Maintainer) DeleteEdge(u, v VID) bool {
	loc, pos := m.locate(u, v)
	if !loc.live() {
		return false
	}
	m.deletes++
	m.deleteEdgeRaw(u, v, loc, pos)
	m.maybeCompact()
	return true
}

// addEdgeRaw records the absent edge (u, v), found at (loc, pos) by
// locate, in the delta layer: either by cancelling a base tombstone or by
// growing the add buffers.
func (m *Maintainer) addEdgeRaw(u, v VID, loc edgeLoc, pos int) {
	if loc == locTombstoned {
		m.delOut[u] = slices.Delete(m.delOut[u], pos, pos+1)
		m.delIn[v] = removeSorted(m.delIn[v], u)
		m.delta--
	} else {
		m.addOut[u] = slices.Insert(m.addOut[u], pos, v)
		m.addIn[v] = insertSorted(m.addIn[v], u)
		m.delta++
	}
	m.m++
}

// deleteEdgeRaw removes the present edge (u, v), found at (loc, pos) by
// locate: either by shrinking the add buffers or by tombstoning a base
// edge. The witnesses through the edge break.
func (m *Maintainer) deleteEdgeRaw(u, v VID, loc edgeLoc, pos int) {
	if loc == locAdded {
		m.addOut[u] = slices.Delete(m.addOut[u], pos, pos+1)
		m.addIn[v] = removeSorted(m.addIn[v], u)
		m.delta--
	} else {
		m.delOut[u] = slices.Insert(m.delOut[u], pos, v)
		m.delIn[v] = insertSorted(m.delIn[v], u)
		m.delta++
	}
	m.m--
	m.wit.breakEdge(u, v)
}

// coverEndpoint covers the endpoint of (u, v) with the larger total
// degree — hubs tend to cover more future cycles (the bottom-up
// heuristic's insight) — and returns it. cyc, the cycle the search found
// through (u, v) (nil on a capped search), becomes its witness.
func (m *Maintainer) coverEndpoint(u, v VID, cyc []VID) VID {
	pick := u
	if m.degree(v) > m.degree(u) {
		pick = v
	}
	m.addCover(pick, cyc)
	return pick
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
//
// Only rows with a non-empty delta change. Every source is already sorted
// — base rows, tombstones and adds — and adds are disjoint from the base
// (addEdgeRaw cancels a tombstone instead), so such a row is one
// two-pointer merge of its live base row with its add row, on each side.
// Every run of clean rows between them is one bulk copy of the base's CSR
// arrays (digraph.PatchRows): the same CSR FromSortedRows builds from the
// live out-rows, without re-scattering every in-edge. Base self-loops
// (possible when FromGraph adopted a KeepSelfLoops graph) are preserved;
// they are never cycles (minLen >= 2) and every traversal skips them
// structurally.
func (m *Maintainer) compact() digraph.Adjacency {
	if m.delta == 0 && m.base.NumVertices() == m.n {
		return m.base
	}
	t0 := time.Now()
	m.compactions++
	baseN := m.base.NumVertices()
	g := digraph.PatchRows(m.base, m.n, m.m,
		func(u VID) bool { return len(m.addOut[u])+len(m.delOut[u]) > 0 },
		func(dst []VID, u VID) []VID { return m.appendLiveRow(dst, u, baseN) },
		func(v VID) bool { return len(m.addIn[v])+len(m.delIn[v]) > 0 },
		func(dst []VID, v VID) []VID {
			if int(v) < baseN {
				return appendMerged(dst, m.base.In(v), m.delIn[v], m.addIn[v])
			}
			return append(dst, m.addIn[v]...)
		})
	m.clearDeltas()
	m.base = g
	m.lastCompaction = time.Since(t0)
	return g
}

// appendLiveRow appends u's live out-row to dst, ascending; baseN is the
// base's vertex count. Rows past m.n (a Grow not yet applied) are empty.
func (m *Maintainer) appendLiveRow(dst []VID, u VID, baseN int) []VID {
	switch {
	case int(u) < baseN:
		return appendMerged(dst, m.base.Out(u), m.delOut[u], m.addOut[u])
	case int(u) < m.n:
		return append(dst, m.addOut[u]...)
	}
	return dst
}

// clearDeltas empties the delta rows, keeping their capacity.
func (m *Maintainer) clearDeltas() {
	for u := 0; u < m.n; u++ {
		m.addOut[u] = m.addOut[u][:0]
		m.addIn[u] = m.addIn[u][:0]
		m.delOut[u] = m.delOut[u][:0]
		m.delIn[u] = m.delIn[u][:0]
	}
	m.delta = 0
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

// LastCompaction returns how long the most recent compaction took.
func (m *Maintainer) LastCompaction() time.Duration { return m.lastCompaction }

// sorted-slice primitives for the delta buffers.

// appendMerged appends (row minus dels) merged with adds to buf, ascending.
// All three lists are sorted and adds is disjoint from row.
func appendMerged(buf, row, dels, adds []VID) []VID {
	i, j := 0, 0
	for _, w := range row {
		for j < len(dels) && dels[j] < w {
			j++
		}
		if j < len(dels) && dels[j] == w {
			continue
		}
		for i < len(adds) && adds[i] < w {
			buf = append(buf, adds[i])
			i++
		}
		buf = append(buf, w)
	}
	return append(buf, adds[i:]...)
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
