package dynamic

import (
	"fmt"
	"slices"

	"tdb/internal/digraph"
)

// Batch is one logged ApplyBatch call, the unit ReplayBatches re-applies:
// the vertex count the maintainer had grown to when the batch ran, its
// updates, and the cover vertices ApplyBatch returned for it.
type Batch struct {
	GrowTo  int
	Updates []Update
	Added   []VID
}

// ReplayBatches re-applies a tail of batches whose cover decisions are
// already known (WAL replay): each batch's Added is what ApplyBatch
// returned for it, the tail starting from m's current state. The result is
// the state those ApplyBatch calls left, with the same graph, cover,
// insert/delete/cover-add counters and Reminimize dirty set. It is adopted
// rather than re-decided, so no cycle search runs.
//
// The tail is rebuilt in one pass instead of one edit per update:
//
//   - Validate every batch before anything changes: its updates against
//     the vertex count grown to so far, its logged vertices in range,
//     uncovered, and named once across the whole tail.
//   - Bucket all updates by source vertex with a counting sort, then sort
//     each row's segment by target, keeping log order within an edge.
//   - Merge each live row (base minus tombstones, plus adds) with its
//     segment into a fresh CSR, folding an edge's ops in log order: insert
//     if absent (self-loops skipped), delete if present.
//   - Swap in the new base with empty deltas, then cover the logged
//     vertices in order.
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
	var named map[VID]int // logged cover vertex -> the batch that added it
	for i, b := range batches {
		n = max(n, b.GrowTo)
		if err := validateUpdates(b.Updates, n); err != nil {
			return i, fmt.Errorf("dynamic: batch %d: %w", i, err)
		}
		for _, v := range b.Added {
			if uint64(v) >= uint64(n) {
				return i, fmt.Errorf("dynamic: batch %d: replayed cover vertex %d out of range (graph has %d vertices)", i, v, n)
			}
			if int(v) < m.n && m.covered[v] {
				return i, fmt.Errorf("dynamic: batch %d: replayed cover vertex %d is already covered", i, v)
			}
			if prev, dup := named[v]; dup {
				return i, fmt.Errorf("dynamic: batch %d: replayed cover vertex %d was already added by batch %d", i, v, prev)
			}
			if named == nil {
				named = make(map[VID]int)
			}
			named[v] = i
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
	dels := make([]int, len(batches))
	var t tailMerge
	if updates > 0 {
		t = m.mergeTail(batches, n, updates, dels)
	}
	overflow := m.dirtyOverflows(batches, dels)
	m.Grow(n)
	if updates > 0 {
		m.clearDeltas()
		m.base, m.m = t.g, t.g.NumEdges()
		m.compactions++
		m.inserts += t.inserts
		m.deletes += t.deletes
	}
	if overflow {
		m.needFull = true
		m.dirty = m.dirty[:0]
	}
	m.markDirty(t.sites...)
	for _, b := range batches {
		for _, v := range b.Added {
			m.addCover(v)
		}
	}
}

// tailMerge is what mergeTail built: the new base, the effective inserts
// and deletes among the tail's updates, and both endpoints of every
// effective delete (the sites deleteEdgeRaw would have marked dirty).
type tailMerge struct {
	g                *digraph.Graph
	inserts, deletes int64
	sites            []VID
}

// mergeTail builds the CSR of the graph the batches leave, on n vertices,
// without changing m; dels[i] receives batch i's effective deletes.
func (m *Maintainer) mergeTail(batches []Batch, n, updates int, dels []int) tailMerge {
	// Counting sort by source: row u's updates land in slots
	// [start[u], start[u+1]) in log order. A key is the target above the
	// slot's rank within its row, so sorting a row's keys orders it by
	// target and keeps log order within an edge; tags[slot] holds the
	// op and the batch.
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
	tags := make([]uint32, updates)
	next := slices.Clone(start[:n])
	for i, b := range batches {
		for _, up := range b.Updates {
			s := next[up.U]
			next[up.U]++
			keys[s] = uint64(up.V)<<32 | uint64(s-start[up.U])
			tags[s] = uint32(i)<<1 | uint32(up.Op)
		}
	}

	var t tailMerge
	baseN := m.base.NumVertices()
	var live []VID
	t.g = digraph.FromSortedRows(n, m.m+inserts, func(dst []VID, u VID) []VID {
		seg := keys[start[u]:start[u+1]]
		if len(seg) == 0 {
			return m.appendLiveRow(dst, u, baseN)
		}
		slices.Sort(seg)
		live = m.appendLiveRow(live[:0], u, baseN)
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
				tag := tags[start[u]+int(uint32(seg[j]))]
				switch {
				case Op(tag&1) == OpInsert && !present && u != v:
					present = true
					t.inserts++
				case Op(tag&1) == OpDelete && present:
					present = false
					t.deletes++
					dels[tag>>1]++
					t.sites = append(t.sites, u, v)
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

// dirtyOverflows reports whether applying the batches one at a time would
// have collapsed the dirty set into needFull. markDirty does that once the
// set would outgrow the vertex count, which the batches grow one by one;
// each effective delete marks two sites and each cover addition one.
func (m *Maintainer) dirtyOverflows(batches []Batch, dels []int) bool {
	if m.needFull {
		return false
	}
	n, sites := m.n, len(m.dirty)
	for i, b := range batches {
		n = max(n, b.GrowTo)
		sites += 2*dels[i] + len(b.Added)
		if sites > n {
			return true
		}
	}
	return false
}
