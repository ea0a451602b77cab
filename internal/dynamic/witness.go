package dynamic

import (
	"math"
	"slices"
)

// Witness-indexed reminimization (DESIGN.md §10).
//
// A cover vertex v is necessary as long as some constrained cycle has v as
// its only covered vertex. The maintainer keeps one such cycle per cover
// vertex, its witness: the cycle the insertion search found when it
// covered v, or the cycle the block detector found when a Reminimize pass
// re-tested v. A witness stays a proof while every edge on it is live and
// every other vertex on it is uncovered. Inserting edges, growing the
// graph and taking vertices out of the cover never break one, so only two
// events can:
//
//   - deleting an edge of the witness, and
//   - covering another vertex of the witness.
//
// An inverted index (vertex -> owners of the witnesses through it) finds
// the witnesses either event breaks in time proportional to the hits. A
// broken witness is dropped and its owner queued for a re-test. Cover
// vertices that never had a witness are queued as unknown: a seeded or
// recovered cover and vertices a replayed log covered.
//
// Reminimize re-tests exactly the queue. Every other cover vertex holds a
// valid witness, and the pass only removes vertices, which breaks none, so
// afterwards every cover vertex holds one and the cover is minimal. That
// also makes the pass's decisions independent of which witnesses a
// maintainer happens to hold: a vertex with a valid witness would survive
// a re-test, so re-testing a superset of the queue removes the same
// vertices. A replica that recovered the same (graph, cover) with every
// witness unknown therefore reminimizes exactly like the original.

// Re-test reasons, per vertex. Zero means the vertex is not queued: it
// holds a witness or is uncovered.
const (
	retestBroken  uint8 = 1 + iota // its witness broke
	retestUnknown                  // it never had a witness
)

// witnessIndex holds the witnesses, their inverted index and the re-test
// queue in flat arrays: a few words per vertex and per witness vertex, and
// no pointer for the garbage collector to trace. The witness cycles sit in
// a slot arena; owner o's cycle fills the slots [first[o], first[o]+size[o]),
// slot s holding the vertex vert[s] on behalf of owner[s]. The slots that
// hold one vertex x are linked from head[x] along next: that list is the
// inverted index. A dropped witness unlinks its slots and leaves them to
// the next witness of the same length.
type witnessIndex struct {
	first, size []int32   // per owner; size 0 when it holds no witness
	head        []int32   // per vertex: its first slot, -1 when none
	vert, owner []VID     // per slot
	next        []int32   // per slot: the next slot of the same vertex, -1 last
	free        [][]int32 // free[l]: the first slots of dropped runs of length l

	reason  []uint8 // re-test reason of a queued cover vertex
	queue   []VID   // vertices queued since the last pass; may hold stale entries
	broken  int     // queued vertices by reason
	unknown int
	hits    []VID // scratch for breakEdge and breakVertex
}

// grow extends the per-vertex arrays to n vertices.
func (w *witnessIndex) grow(n int) {
	if d := n - len(w.reason); d > 0 {
		w.first = append(w.first, make([]int32, d)...)
		w.size = append(w.size, make([]int32, d)...)
		w.head = appendN(w.head, d, -1)
		w.reason = append(w.reason, make([]uint8, d)...)
	}
}

// cycle returns owner's witness (empty when none), aliasing the arena.
func (w *witnessIndex) cycle(owner VID) []VID {
	return w.vert[w.first[owner] : w.first[owner]+w.size[owner]]
}

// set copies c in as owner's witness. owner holds none.
func (w *witnessIndex) set(owner VID, c []VID) {
	w.dequeue(owner)
	l := len(c)
	var s int32
	if l < len(w.free) && len(w.free[l]) > 0 {
		f := w.free[l]
		s, w.free[l] = f[len(f)-1], f[:len(f)-1]
	} else {
		if len(w.vert)+l > math.MaxInt32 {
			panic("dynamic: witness arena outgrew int32 slot indices")
		}
		s = int32(len(w.vert))
		end := len(w.vert) + l
		w.vert = slices.Grow(w.vert, l)[:end]
		w.owner = slices.Grow(w.owner, l)[:end]
		w.next = slices.Grow(w.next, l)[:end]
	}
	w.first[owner], w.size[owner] = s, int32(l)
	for _, x := range c {
		w.vert[s], w.owner[s] = x, owner
		w.next[s], w.head[x] = w.head[x], s
		s++
	}
}

// drop removes owner's witness, if any, from the index.
func (w *witnessIndex) drop(owner VID) {
	lo, l := w.first[owner], w.size[owner]
	if l == 0 {
		return
	}
	for s := lo; s < lo+l; s++ {
		p := &w.head[w.vert[s]]
		for *p != s {
			p = &w.next[*p]
		}
		*p = w.next[s]
	}
	w.size[owner] = 0
	for len(w.free) <= int(l) {
		w.free = append(w.free, nil)
	}
	w.free[l] = append(w.free[l], lo)
}

// enqueue queues the cover vertex v for a re-test, unless it already is.
func (w *witnessIndex) enqueue(v VID, reason uint8) {
	if w.reason[v] != 0 {
		return
	}
	w.reason[v] = reason
	w.queue = append(w.queue, v)
	if reason == retestBroken {
		w.broken++
	} else {
		w.unknown++
	}
}

// dequeue takes v off the re-test queue (its queue entry goes stale).
func (w *witnessIndex) dequeue(v VID) {
	switch w.reason[v] {
	case retestBroken:
		w.broken--
	case retestUnknown:
		w.unknown--
	}
	w.reason[v] = 0
}

// breakEdge breaks every witness that uses the edge (a, b).
func (w *witnessIndex) breakEdge(a, b VID) {
	hits := w.hits[:0]
	for s := w.head[a]; s >= 0; s = w.next[s] {
		o := w.owner[s]
		t := s + 1 // the slot after s on o's cycle
		if t == w.first[o]+w.size[o] {
			t = w.first[o]
		}
		if w.vert[t] == b {
			hits = append(hits, o)
		}
	}
	w.breakAll(hits)
}

// breakVertex breaks every witness through x other than x's own: x has
// just been covered.
func (w *witnessIndex) breakVertex(x VID) {
	hits := w.hits[:0]
	for s := w.head[x]; s >= 0; s = w.next[s] {
		if o := w.owner[s]; o != x {
			hits = append(hits, o)
		}
	}
	w.breakAll(hits)
}

// breakAll breaks the witnesses of hits, which lists each owner once.
func (w *witnessIndex) breakAll(hits []VID) {
	for _, o := range hits {
		w.drop(o)
		w.enqueue(o, retestBroken)
	}
	w.hits = hits[:0]
}

// takeQueue returns the queued cover vertices ascending, each once, and
// empties the queue; active is the complement of the cover.
func (w *witnessIndex) takeQueue(active []bool) []VID {
	q := w.queue[:0]
	for _, v := range w.queue {
		if w.reason[v] != 0 && !active[v] {
			q = append(q, v)
		}
	}
	slices.Sort(q)
	q = slices.Compact(q)
	w.queue = q
	return q
}

// addCover puts the uncovered vertex v into the cover with witness c (nil
// when none is known; copied in), breaking the witnesses that pass through
// v.
func (m *Maintainer) addCover(v VID, c []VID) {
	m.active[v] = false
	m.cover++
	m.coverAdds++
	m.wit.breakVertex(v)
	if c != nil {
		m.wit.set(v, c)
	} else {
		m.wit.enqueue(v, retestUnknown)
	}
}

// dropCover takes the cover vertex v out of the cover. That breaks no
// witness; v's own is dropped, since witnesses belong to cover vertices.
func (m *Maintainer) dropCover(v VID) {
	m.active[v] = true
	m.cover--
	m.wit.drop(v)
	m.wit.dequeue(v)
}

// Pass describes one Reminimize pass: how many cover vertices it
// re-tested (those whose witness broke plus those that never had one) and
// the ones that left the cover, ascending.
type Pass struct {
	Retested int
	Removed  []VID
}

// Reminimize restores minimality: it re-tests every cover vertex whose
// witness broke or that never had one, in ascending order, and removes it
// when no constrained cycle passes through it in the uncovered graph,
// decided by the maintainer's exact O(k·m) block-based detector with its
// BFS filter on. A vertex that keeps its place takes the found cycle as its
// new witness. It returns the number of vertices removed.
func (m *Maintainer) Reminimize() int {
	return len(m.ReminimizePass().Removed)
}

// ReminimizePass is Reminimize, reporting what the pass did.
func (m *Maintainer) ReminimizePass() Pass {
	cands := m.wit.takeQueue(m.active)
	if len(cands) == 0 {
		return Pass{}
	}
	p := Pass{Retested: len(cands)}
	det := m.detector()
	for _, v := range cands {
		m.cycleChecks++
		m.active[v] = true
		c := det.FindFrom(v)
		if c == nil {
			m.dropCover(v)
			p.Removed = append(p.Removed, v)
			continue
		}
		m.active[v] = false
		m.wit.set(v, c)
	}
	m.wit.queue = m.wit.queue[:0]
	return p
}

// Witnesses returns how many cover vertices await a re-test: broken, whose
// witness broke, and unknown, which never had one.
func (m *Maintainer) Witnesses() (broken, unknown int) {
	return m.wit.broken, m.wit.unknown
}
