package dynamic

import (
	"fmt"
	"slices"

	"tdb/internal/digraph"
)

// Batch is one logged ApplyBatch call, the unit ReplayBatches re-applies:
// the vertex count the maintainer had grown to when the batch ran, its
// updates, the cover vertices ApplyBatch returned for it, and the vertices
// a Reminimize right after it removed (ascending, as the pass reports
// them).
type Batch struct {
	GrowTo  int
	Updates []Update
	Added   []VID
	Removed []VID
}

// ReplayBatches re-applies a tail of batches whose cover decisions are
// already known (WAL replay): each batch's Added is what ApplyBatch
// returned for it and its Removed what a Reminimize after it removed, the
// tail starting from m's current state. The result is the state those
// calls left, with the same graph, cover and insert/delete/cover-add
// counters. It is adopted rather than re-decided, so no cycle search runs.
// The adopted cover vertices have no witness, so the next Reminimize
// re-tests them; witnesses m held break as the tail's deletes and cover
// additions dictate.
//
// The tail is rebuilt in one pass instead of one edit per update:
//
//   - Validate every batch before anything changes: its updates against
//     the vertex count grown to so far, its logged vertices in range, each
//     added vertex uncovered and each removed one covered at that point of
//     the tail (a batch's additions come before its removals).
//   - Bucket all updates by source vertex with a counting sort, then sort
//     each row's segment by target, keeping log order within an edge.
//   - Merge each live row with its segment into a fresh CSR, folding an
//     edge's ops in log order: insert if absent (self-loops skipped),
//     delete if present.
//   - Swap in the new base with an empty overlay, break the witnesses of the
//     deleted edges, then add and remove the logged vertices in order.
//
// That is O(U log d + n + m) for U updates with at most d in one row,
// against U searches and sorted-slice edits plus the compactions they
// trigger. The new base is built before m changes, so a panic leaves m as
// it was.
//
// A batch that fails validation ends the replay: the batches before it are
// applied, applied is its index, and err names it.
func (m *Maintainer) ReplayBatches(batches []Batch) (applied int, err error) {
	applied, err = m.validateTail(batches)
	m.replayTail(batches[:applied])
	return applied, err
}

// validateTail returns how many leading batches validate, and the error of
// the first one that does not.
func (m *Maintainer) validateTail(batches []Batch) (int, error) {
	n := m.n
	// The cover so far, as the tail changed it: vertex -> covered, and the
	// batch that last changed it.
	type change struct {
		covered bool
		batch   int
	}
	var changed map[VID]change
	covered := func(v VID) (bool, int) {
		if c, ok := changed[v]; ok {
			return c.covered, c.batch
		}
		return int(v) < m.n && !m.active[v], -1
	}
	for i, b := range batches {
		n = max(n, b.GrowTo)
		if err := validateUpdates(b.Updates, n); err != nil {
			return i, fmt.Errorf("dynamic: batch %d: %w", i, err)
		}
		for j, vs := range [][]VID{b.Added, b.Removed} {
			adding := j == 0
			for _, v := range vs {
				if uint64(v) >= uint64(n) {
					return i, fmt.Errorf("dynamic: batch %d: replayed cover vertex %d out of range (graph has %d vertices)", i, v, n)
				}
				switch c, by := covered(v); {
				case adding && c && by >= 0:
					return i, fmt.Errorf("dynamic: batch %d: replayed cover vertex %d was already added by batch %d", i, v, by)
				case adding && c:
					return i, fmt.Errorf("dynamic: batch %d: replayed cover vertex %d is already covered", i, v)
				case !adding && !c:
					return i, fmt.Errorf("dynamic: batch %d: removed vertex %d is not covered", i, v)
				}
				if changed == nil {
					changed = make(map[VID]change)
				}
				changed[v] = change{covered: adding, batch: i}
			}
		}
	}
	return len(batches), nil
}

// replayTail applies validated batches (see ReplayBatches).
func (m *Maintainer) replayTail(batches []Batch) {
	n, updates := m.n, 0
	for _, b := range batches {
		n = max(n, b.GrowTo)
		updates += len(b.Updates)
	}
	var t tailMerge
	if updates > 0 {
		t = m.mergeTail(batches, n, updates)
	}
	m.Grow(n)
	if updates > 0 {
		m.rebase(t.g)
		m.m = t.g.NumEdges()
		m.compactions++
		m.inserts += t.inserts
		m.deletes += t.deletes
	}
	for _, e := range t.deleted {
		m.wit.breakEdge(e.U, e.V)
	}
	for _, b := range batches {
		for _, v := range b.Added {
			m.addCover(v, nil)
		}
		for _, v := range b.Removed {
			m.dropCover(v)
		}
	}
}

// tailMerge is what mergeTail built: the new base, the effective inserts
// and deletes among the tail's updates, and the edges those deletes
// removed (whose witnesses break).
type tailMerge struct {
	g                *digraph.Graph
	inserts, deletes int64
	deleted          []digraph.Edge
}

// mergeTail builds the CSR of the graph the batches leave, on n vertices,
// without changing m.
func (m *Maintainer) mergeTail(batches []Batch, n, updates int) tailMerge {
	// Counting sort by source: row u's updates land in slots
	// [start[u], start[u+1]) in log order. A key is the target above the
	// slot's rank within its row, so sorting a row's keys orders it by
	// target and keeps log order within an edge; ops[slot] holds the op.
	start := make([]int, n+1)
	inserts := 0
	for _, b := range batches {
		for _, up := range b.Updates {
			start[int(up.U)+1]++
			if up.Op == OpInsert {
				inserts++
			}
		}
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	keys := make([]uint64, updates)
	ops := make([]Op, updates)
	next := slices.Clone(start[:n])
	for _, b := range batches {
		for _, up := range b.Updates {
			s := next[up.U]
			next[up.U]++
			keys[s] = uint64(up.V)<<32 | uint64(s-start[up.U])
			ops[s] = up.Op
		}
	}

	var t tailMerge
	t.g = digraph.FromSortedRows(n, m.m+inserts, func(dst []VID, u VID) []VID {
		var live []VID // rows past m.n, which the tail grows, start empty
		if int(u) < m.n {
			live = m.Out(u)
		}
		seg := keys[start[u]:start[u+1]]
		if len(seg) == 0 {
			return append(dst, live...)
		}
		slices.Sort(seg)
		i := 0
		for j := 0; j < len(seg); {
			v := VID(seg[j] >> 32)
			for i < len(live) && live[i] < v {
				dst = append(dst, live[i])
				i++
			}
			present := i < len(live) && live[i] == v
			if present {
				i++
			}
			for ; j < len(seg) && VID(seg[j]>>32) == v; j++ {
				switch op := ops[start[u]+int(uint32(seg[j]))]; {
				case op == OpInsert && !present && u != v:
					present = true
					t.inserts++
				case op == OpDelete && present:
					present = false
					t.deletes++
					t.deleted = append(t.deleted, digraph.Edge{U: u, V: v})
				}
			}
			if present {
				dst = append(dst, v)
			}
		}
		return append(dst, live[i:]...)
	})
	return t
}
