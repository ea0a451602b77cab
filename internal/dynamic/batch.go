package dynamic

import (
	"fmt"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
	"tdb/internal/fault"
)

// The batched update path. A batch applies all structural changes first
// and defers the cycle-existence queries of insertions between uncovered
// endpoints to the end; the deferred queries are then answered up to
// cycle.BatchWidth (64) at a time by ONE bit-parallel bidirectional BFS
// sweep (cycle.BatchBFSFilter, lane per edge, covered vertices as the
// mask), with the few lanes the filter cannot prune re-checked by the exact scalar search
// — the same two-tier pattern the top-down solver uses.
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

// The bit-parallel sweep needs flat CSR arrays, so it costs one delta
// compaction up front. Per query the sweep is ~3x cheaper than a scalar
// BFS (shared word-wide edge expansions), but an O(m) rebuild bought for
// one batch rarely amortizes: the batch goes bit-parallel only when it
// has at least batchScalarCutoff deferred queries and either a compaction
// is due anyway under the standard delta policy (the sweep then rides a
// rebuild already paid for) or the burst is large relative to the base
// (one query per batchSweepEdgesPerQuery base edges). Otherwise scalar
// resolution on the hybrid adjacency wins — the same measure-then-commit
// discipline as the solver's adaptive filter tiers.
const (
	batchScalarCutoff       = 16
	batchSweepEdgesPerQuery = 32
)

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
	pending = live
	if len(pending) == 0 {
		m.maybeCompact()
		return nil
	}

	var added []VID
	sweep := len(pending) >= batchScalarCutoff &&
		(m.compactionDue() || len(pending)*batchSweepEdgesPerQuery >= m.base.NumEdges())
	if !sweep {
		m.maybeCompact()
		for _, e := range pending {
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

	// Bit-parallel path: compact so both the lane sweep and the scalar
	// re-checks run on flat CSR arrays.
	g := m.compact()
	n := g.NumVertices()
	active := m.remActiveBuf(n)
	for v := 0; v < n; v++ {
		active[v] = !m.covered[v]
	}
	bf := cycle.NewBatchBFSFilterWith(g, m.k, active, m.remScratchFor(n))
	var (
		word   [cycle.BatchWidth]digraph.Edge
		srcs   [cycle.BatchWidth]VID
		pruned [cycle.BatchWidth]bool
	)
	for len(pending) > 0 {
		// Fill one 64-lane word, skipping edges an earlier word resolved.
		// Lane i asks about e.U: every cycle through the edge passes
		// through it, so "no closed walk <= k through e.U" retires the
		// query.
		w := 0
		for w < cycle.BatchWidth && len(pending) > 0 {
			e := pending[0]
			pending = pending[1:]
			if m.covered[e.U] || m.covered[e.V] {
				continue
			}
			word[w] = e
			srcs[w] = e.U
			w++
		}
		if w == 0 {
			break
		}
		m.cycleChecks += int64(w)
		bf.CanPruneBatch(srcs[:w], pruned[:w])
		for i := 0; i < w; i++ {
			e := word[i]
			if pruned[i] || m.covered[e.U] || m.covered[e.V] {
				continue
			}
			// The lane answer is conservative (the short closed walk may be
			// non-simple or below minLen); the scalar search is exact.
			if m.edgeCreatesCycle(e.U, e.V) {
				pick := m.coverEndpoint(e.U, e.V)
				active[pick] = false // tighten later words' mask
				added = append(added, pick)
			}
		}
	}
	return added
}
