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
//     into a fresh CSR, not one overlay edit per update.
//
// Storage is a CSR base plus a merged-row overlay: a compacted immutable
// digraph.Graph carries the bulk of the edges, and a row touched since the
// last compaction holds the vertex's full live row, sorted, in the
// overlay (one per side); every other row reads the base. The maintainer
// therefore is a digraph.Adjacency, and an edge lookup is one binary
// search. The overlay folds into a fresh CSR once the edits since the last
// compaction exceed a fraction of the base (and on Snapshot): clean rows
// are copied in bulk and touched rows are copied as they stand.
//
// Cost model: every cycle question runs on one exact block-based detector
// (package cycle) over the live adjacency, with the cover as its inactive
// mask and its BFS filter on. An insertion between uncovered endpoints is
// the detector's edge-rooted query, O(k·m) at worst like the paper's
// vertex query and answered by the filter in O(edges within k hops) when
// no cycle closes; an insertion whose target has no out-edge answers
// before any search. A cycle the search finds becomes the covered
// endpoint's witness, at most k vertices plus as many index entries; a
// deletion costs a scan of the witnesses through its source, a cover
// addition one of the witnesses through the new vertex. Reminimize runs
// the same detector's vertex query per re-tested vertex, and re-tests
// only the vertices whose witness broke, or that never had one (a seeded
// or replayed cover).
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

// Compaction policy: fold the overlay into a fresh CSR once at least
// compactMinDelta edits were made since the last compaction AND at least
// 1/compactFraction of the base's edge count.
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

	// CSR base + merged-row overlay: the live row of v is out.row(v) when
	// v's row was touched since the last compaction, base.Out(v) otherwise
	// (empty past the base); both are sorted.
	base    digraph.Adjacency
	baseN   int // base.NumVertices()
	n       int // current vertex count, >= baseN
	out, in overlay
	delta   int // edits since the last compaction: compaction pressure
	m       int // live edge count

	// active is the complement of the cover: active[v] is false exactly
	// when v is covered. It is det's mask.
	active []bool
	cover  int

	// wit proves each cover vertex necessary with a witness cycle and
	// queues the ones whose proof broke or never existed, the only
	// vertices Reminimize re-tests (witness.go).
	wit witnessIndex

	// det answers every cycle question, over the maintainer itself as its
	// adjacency; built on first use and rebuilt after Grow. Its scratch
	// outlives the rebuilds and grows geometrically, so a stream that adds
	// one vertex per insert pays amortized O(1) per vertex for it.
	det     *cycle.BlockDetector
	scratch *cycle.Scratch

	// dropped holds the keys of the edges the running batch deleted
	// (batch.go).
	dropped []uint64

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
	m := &Maintainer{k: k, minLen: minLen, base: new(digraph.Graph)}
	m.Grow(n)
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
	m.base, m.baseN = g, n
	m.m = g.NumEdges()
	for _, v := range cover {
		if m.active[v] {
			m.active[v] = false
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
	m.out.slot = appendN(m.out.slot, n-m.n, -1)
	m.in.slot = appendN(m.in.slot, n-m.n, -1)
	m.active = appendN(m.active, n-m.n, true)
	m.wit.grow(n)
	m.n = n
	m.det = nil
}

// NumEdges returns the current edge count.
func (m *Maintainer) NumEdges() int { return m.m }

// CoverSize returns the current cover size.
func (m *Maintainer) CoverSize() int { return m.cover }

// Cover returns the current cover, ascending.
func (m *Maintainer) Cover() []VID {
	out := make([]VID, 0, m.cover)
	for v, a := range m.active {
		if !a {
			out = append(out, VID(v))
		}
	}
	return out
}

// Covered reports whether v is currently in the cover.
func (m *Maintainer) Covered(v VID) bool { return !m.active[v] }

// Out returns v's live out-neighbors, ascending. The slice aliases the
// maintainer's storage and is valid until its next update.
func (m *Maintainer) Out(v VID) []VID {
	if r, ok := m.out.row(v); ok {
		return r
	}
	if int(v) < m.baseN {
		return m.base.Out(v)
	}
	return nil
}

// In returns v's live in-neighbors under the same rules as Out.
func (m *Maintainer) In(v VID) []VID {
	if r, ok := m.in.row(v); ok {
		return r
	}
	if int(v) < m.baseN {
		return m.base.In(v)
	}
	return nil
}

// OutDegree returns len(Out(v)).
func (m *Maintainer) OutDegree(v VID) int { return len(m.Out(v)) }

// InDegree returns len(In(v)).
func (m *Maintainer) InDegree(v VID) int { return len(m.In(v)) }

// HasEdge reports whether the edge currently exists.
func (m *Maintainer) HasEdge(u, v VID) bool {
	_, ok := slices.BinarySearch(m.Out(u), v)
	return ok
}

// InsertEdge adds the edge (u, v), updating the cover if the insertion
// created uncovered constrained cycles. It returns the vertex added to the
// cover, or -1 when none was needed. Self-loops and duplicates are ignored
// (returning -1). Both endpoints must be < NumVertices (see Grow).
func (m *Maintainer) InsertEdge(u, v VID) int {
	if u == v || !m.addEdge(u, v) {
		return -1
	}
	m.maybeCompact()

	// Every cycle created by this insertion passes through (u, v). If an
	// endpoint is covered, all of them already are.
	if !m.active[u] || !m.active[v] {
		return -1
	}
	return m.checkInsert(u, v)
}

// DeleteEdge removes the edge (u, v) if present, reporting whether it
// existed. The cover stays valid; call Reminimize to shed vertices that the
// deletion made redundant.
func (m *Maintainer) DeleteEdge(u, v VID) bool {
	if !m.deleteEdge(u, v) {
		return false
	}
	m.maybeCompact()
	return true
}

// addEdge inserts the edge (u, v) into both sides of the overlay unless it
// is already live, reporting whether it did.
func (m *Maintainer) addEdge(u, v VID) bool {
	row := m.Out(u)
	pos, ok := slices.BinarySearch(row, v)
	if ok {
		return false
	}
	r := m.out.edit(u, row)
	*r = slices.Insert(*r, pos, v)
	r = m.in.edit(v, m.In(v))
	*r = insertSorted(*r, u)
	m.inserts++
	m.delta++
	m.m++
	return true
}

// deleteEdge removes the edge (u, v) from both sides of the overlay if it
// is live, reporting whether it was. The witnesses through the edge break.
func (m *Maintainer) deleteEdge(u, v VID) bool {
	row := m.Out(u)
	pos, ok := slices.BinarySearch(row, v)
	if !ok {
		return false
	}
	r := m.out.edit(u, row)
	*r = slices.Delete(*r, pos, pos+1)
	r = m.in.edit(v, m.In(v))
	*r = removeSorted(*r, u)
	m.deletes++
	m.delta++
	m.m--
	m.wit.breakEdge(u, v)
	return true
}

// checkInsert runs the insertion query for the edge (u, v) between
// uncovered endpoints: the detector's edge-rooted query in the uncovered
// graph. When it finds a constrained cycle, checkInsert covers the
// endpoint with the larger total degree — hubs tend to cover more future
// cycles (the bottom-up heuristic's insight) — with the cycle as its
// witness and returns it; otherwise it returns -1.
func (m *Maintainer) checkInsert(u, v VID) int {
	m.cycleChecks++
	cyc := m.detector().FindThroughEdge(u, v)
	if cyc == nil {
		return -1
	}
	pick := u
	if m.degree(v) > m.degree(u) {
		pick = v
	}
	m.addCover(pick, cyc)
	return int(pick)
}

// detector returns the maintainer's block detector, building it after a
// Grow. Its adjacency is the maintainer's live graph and its mask the
// complement of the cover, both read at query time.
func (m *Maintainer) detector() *cycle.BlockDetector {
	if m.det == nil {
		if m.scratch == nil {
			m.scratch = cycle.NewScratch(m.n)
		} else if m.scratch.Len() < m.n {
			m.scratch = cycle.NewScratch(max(m.n, 2*m.scratch.Len()))
		}
		m.det = cycle.NewBlockDetectorWith(m, m.k, m.minLen, m.active, m.scratch)
		m.det.Filter = true
	}
	return m.det
}

// degree returns the live total degree of v.
func (m *Maintainer) degree(v VID) int {
	return len(m.Out(v)) + len(m.In(v))
}

// compactionDue reports whether the edits since the last compaction have
// grown past the compaction policy's thresholds.
func (m *Maintainer) compactionDue() bool {
	return m.delta >= compactMinDelta && m.delta*compactFraction >= m.base.NumEdges()
}

// maybeCompact folds the overlay into a fresh CSR when a compaction is due.
func (m *Maintainer) maybeCompact() {
	if m.compactionDue() {
		m.compact()
	}
}

// compact rebuilds the CSR base from the live rows and empties the
// overlay. With no edit (and no Grow) since the last compaction it returns
// the base as-is, which is what makes Snapshot cheap on a quiet
// maintainer.
//
// Only the touched rows changed, and each already holds its full live row,
// sorted, so it is copied as it stands; every run of clean rows between
// them is one bulk copy of the base's CSR arrays (digraph.PatchRows): the
// same CSR FromSortedRows builds from the live out-rows, without
// re-scattering every in-edge. Base self-loops (possible when FromGraph
// adopted a KeepSelfLoops graph) are preserved; they are never cycles
// (minLen >= 2) and every traversal skips them structurally.
func (m *Maintainer) compact() digraph.Adjacency {
	if m.delta == 0 && m.baseN == m.n {
		return m.base
	}
	t0 := time.Now()
	m.compactions++
	g := digraph.PatchRows(m.base, m.n, m.m,
		m.out.touched, func(dst []VID, u VID) []VID { return append(dst, m.Out(u)...) },
		m.in.touched, func(dst []VID, v VID) []VID { return append(dst, m.In(v)...) })
	m.rebase(g)
	m.lastCompaction = time.Since(t0)
	return g
}

// rebase makes g, which holds the live graph, the new base and empties the
// overlay.
func (m *Maintainer) rebase(g digraph.Adjacency) {
	m.out.clear()
	m.in.clear()
	m.base, m.baseN = g, g.NumVertices()
	m.delta = 0
}

// Snapshot freezes the current graph into an immutable digraph.Graph by
// compacting the overlay; with no changes since the last compaction it is
// free. The returned graph is shared with the maintainer but immutable:
// later updates accumulate in a fresh overlay and never mutate it.
func (m *Maintainer) Snapshot() digraph.Adjacency {
	return m.compact()
}

// Stats returns operation counters: edge inserts, deletes, cycle queries
// (insertion checks and Reminimize re-tests), and cover additions.
func (m *Maintainer) Stats() (inserts, deletes, cycleChecks, coverAdds int64) {
	return m.inserts, m.deletes, m.cycleChecks, m.coverAdds
}

// Compactions returns how many times the overlay was folded into a
// fresh CSR base.
func (m *Maintainer) Compactions() int64 { return m.compactions }

// LastCompaction returns how long the most recent compaction took.
func (m *Maintainer) LastCompaction() time.Duration { return m.lastCompaction }

// overlay is one side (out or in) of the rows touched since the last
// compaction: each holds its vertex's full live row, sorted. The rows sit
// in one list, indexed from a per-vertex slot, so a clean vertex costs 4
// bytes and no pointer; the list keeps its rows' capacity across
// compactions.
type overlay struct {
	slot []int32 // per vertex: its row in rows, -1 when it reads the base
	rows [][]VID
}

// row returns v's touched row, and whether v has one.
func (o *overlay) row(v VID) ([]VID, bool) {
	if s := o.slot[v]; s >= 0 {
		return o.rows[s], true
	}
	return nil, false
}

// touched reports whether v's row was touched since the last compaction.
func (o *overlay) touched(v VID) bool { return o.slot[v] >= 0 }

// edit returns v's touched row for an in-place edit, first copying live,
// v's current row, into a fresh one when v had none.
func (o *overlay) edit(v VID, live []VID) *[]VID {
	s := o.slot[v]
	if s < 0 {
		s = int32(len(o.rows))
		if len(o.rows) < cap(o.rows) {
			o.rows = o.rows[:s+1]
		} else {
			o.rows = append(o.rows, nil)
		}
		o.rows[s] = append(slices.Grow(o.rows[s][:0], len(live)+1), live...)
		o.slot[v] = s
	}
	return &o.rows[s]
}

// clear returns every vertex to reading the base, keeping the rows'
// capacity. It is O(n), like the compaction that calls it.
func (o *overlay) clear() {
	for v := range o.slot {
		o.slot[v] = -1
	}
	o.rows = o.rows[:0]
}

// appendN appends c copies of x to s.
func appendN[T any](s []T, c int, x T) []T {
	s = slices.Grow(s, c)
	for range c {
		s = append(s, x)
	}
	return s
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
