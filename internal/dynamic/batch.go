package dynamic

import (
	"fmt"
	"slices"

	"tdb/internal/digraph"
	"tdb/internal/fault"
)

// The batched update path. A batch applies all structural changes first
// and defers the cycle-existence queries of insertions between uncovered
// endpoints to the end; the deferred queries then run in order, each one
// the exact scalar search of a single insertion, skipping edges an earlier
// query's cover addition already resolved.
//
// Deferral is sound because the cover only grows during resolution: a
// query answered "no cycle" under an earlier (smaller) cover stays "no
// cycle" under the final one, and every surviving cycle must pass through
// some batch edge whose query then found it. The deferred schedule can
// pick a different (never larger in expectation, occasionally different)
// set of cover vertices than the same updates applied one by one; both
// are valid covers.

// Op selects the kind of an Update.
type Op uint8

const (
	// OpInsert adds an edge (self-loops and duplicates are ignored).
	OpInsert Op = iota
	// OpDelete removes an edge (absent edges are ignored).
	OpDelete
)

// Update is one edge operation of a batch.
type Update struct {
	Op   Op
	U, V VID
}

// InsertOp returns an insertion Update.
func InsertOp(u, v VID) Update { return Update{Op: OpInsert, U: u, V: v} }

// DeleteOp returns a deletion Update.
func DeleteOp(u, v VID) Update { return Update{Op: OpDelete, U: u, V: v} }

// ValidateUpdates checks a batch against the maintainer without applying
// anything: every update must name an op the maintainer knows and vertices
// inside the current vertex range. ApplyBatch assumes validated input (an
// out-of-range vertex is an index panic deep in the adjacency code);
// boundary layers decoding untrusted batches (tdbserve) call this — or
// ApplyBatchChecked — to turn malformed input into an error instead.
func (m *Maintainer) ValidateUpdates(updates []Update) error {
	if err := validateUpdates(updates, m.n); err != nil {
		return fmt.Errorf("dynamic: %w", err)
	}
	return nil
}

// validateUpdates checks updates against a graph of n vertices.
func validateUpdates(updates []Update, n int) error {
	for i, up := range updates {
		if up.Op != OpInsert && up.Op != OpDelete {
			return fmt.Errorf("update %d: unknown op %d", i, up.Op)
		}
		if uint64(up.U) >= uint64(n) || uint64(up.V) >= uint64(n) {
			return fmt.Errorf("update %d: edge (%d, %d) out of range (graph has %d vertices)",
				i, up.U, up.V, n)
		}
	}
	return nil
}

// ApplyBatchChecked is ApplyBatch behind ValidateUpdates: malformed batches
// are rejected as an error with the graph untouched (validation completes
// before the first structural change).
func (m *Maintainer) ApplyBatchChecked(updates []Update) ([]VID, error) {
	if err := m.ValidateUpdates(updates); err != nil {
		return nil, err
	}
	return m.ApplyBatch(updates), nil
}

// ApplyBatch applies the updates in order and returns the vertices added
// to the cover, in the order they were added (nil when none). The cover is
// valid for the post-batch graph; as with DeleteEdge, deletions may leave
// redundant cover vertices behind until the next Reminimize. Updates must
// be in range (see ValidateUpdates / ApplyBatchChecked for untrusted input).
func (m *Maintainer) ApplyBatch(updates []Update) []VID {
	// Chaos hook: a panic injected here fails the batch mid-write exactly
	// like a maintenance bug would; tdbserve's writer must contain it
	// (see internal/fault and the server chaos suite).
	fault.Inject(fault.SiteDynamicApplyBatch)
	pending := m.applyEdges(updates)

	// Requalify: covered endpoints need no query at all, and an edge
	// deleted later in the same batch carries no cycle of the final graph.
	// Only an edge the batch also deleted can be gone, and only such an
	// edge can be deferred twice, by an insert-delete-reinsert toggle, so
	// the lookup and the dedupe that runs its query once stay on that path.
	slices.Sort(m.dropped)
	var seen map[uint64]struct{}
	live := pending[:0]
	for _, e := range pending {
		if !m.active[e.U] || !m.active[e.V] {
			continue
		}
		key := uint64(e.U)<<32 | uint64(e.V)
		if _, ok := slices.BinarySearch(m.dropped, key); ok {
			if !m.HasEdge(e.U, e.V) {
				continue
			}
			if seen == nil {
				seen = make(map[uint64]struct{})
			}
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
		}
		live = append(live, e)
	}
	m.maybeCompact()
	var added []VID
	for _, e := range live {
		if !m.active[e.U] || !m.active[e.V] {
			continue // an earlier addition resolved this edge
		}
		if v := m.checkInsert(e.U, e.V); v >= 0 {
			added = append(added, VID(v))
		}
	}
	return added
}

// applyEdges applies a batch's structural changes in order and returns the
// insertions between then-uncovered endpoints, the candidates for
// ApplyBatch's deferred queries. It leaves the keys of the edges it deleted
// in m.dropped.
func (m *Maintainer) applyEdges(updates []Update) []digraph.Edge {
	m.dropped = m.dropped[:0]
	var pending []digraph.Edge
	for _, up := range updates {
		u, v := up.U, up.V
		switch up.Op {
		case OpInsert:
			if u != v && m.addEdge(u, v) && m.active[u] && m.active[v] {
				pending = append(pending, digraph.Edge{U: u, V: v})
			}
		case OpDelete:
			if m.deleteEdge(u, v) {
				m.dropped = append(m.dropped, uint64(u)<<32|uint64(v))
			}
		}
	}
	return pending
}
