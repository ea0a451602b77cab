package dynamic

import (
	"fmt"

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
	for i, up := range updates {
		if up.Op != OpInsert && up.Op != OpDelete {
			return fmt.Errorf("dynamic: update %d: unknown op %d", i, up.Op)
		}
		if uint64(up.U) >= uint64(m.n) || uint64(up.V) >= uint64(m.n) {
			return fmt.Errorf("dynamic: update %d: edge (%d, %d) out of range (graph has %d vertices)",
				i, up.U, up.V, m.n)
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
	var pending []digraph.Edge
	for _, up := range updates {
		switch up.Op {
		case OpInsert:
			u, v := up.U, up.V
			if u == v || m.HasEdge(u, v) {
				continue
			}
			m.inserts++
			m.addEdgeRaw(u, v)
			if !m.covered[u] && !m.covered[v] {
				pending = append(pending, digraph.Edge{U: u, V: v})
			}
		case OpDelete:
			if !m.HasEdge(up.U, up.V) {
				continue
			}
			m.deletes++
			m.deleteEdgeRaw(up.U, up.V)
		}
	}

	// Requalify: an edge deleted later in the same batch carries no cycle
	// of the final graph, and covered endpoints need no query at all. An
	// insert-delete-reinsert toggle defers the same edge twice; dedupe so
	// its query runs once.
	var seen map[uint64]struct{}
	if len(pending) > 1 {
		seen = make(map[uint64]struct{}, len(pending))
	}
	live := pending[:0]
	for _, e := range pending {
		if !m.HasEdge(e.U, e.V) || m.covered[e.U] || m.covered[e.V] {
			continue
		}
		if seen != nil {
			key := uint64(e.U)<<32 | uint64(e.V)
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
		if m.covered[e.U] || m.covered[e.V] {
			continue // an earlier addition resolved this edge
		}
		m.cycleChecks++
		if m.edgeCreatesCycle(e.U, e.V) {
			added = append(added, m.coverEndpoint(e.U, e.V))
		}
	}
	return added
}
