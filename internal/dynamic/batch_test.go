package dynamic

import (
	"math/rand/v2"
	"testing"

	"tdb/internal/core"
	"tdb/internal/digraph"
	"tdb/internal/gen"
	"tdb/internal/verify"
)

// The headline regression: the seed maintainer's cycleThroughVertex marked
// s on-path and then skipped a self-loop neighbor without unmarking, so a
// cover vertex carrying a self-loop leaked onPath[s] = true out of
// Reminimize — every later search silently treated s as excluded and
// missed cycles through it. The scenario is deterministic: s's out-row
// holds only the self-loop and a covered neighbor (the old code never
// reset its mark list on either), Reminimize legitimately drops the
// cover, and the next closing insertion needs s as an INTERIOR vertex.
func TestSelfLoopCoverScratchLeak(t *testing.T) {
	b := digraph.NewBuilder(3)
	b.KeepSelfLoops = true
	b.AddEdge(0, 0) // the self-loop on the cover vertex
	b.AddEdge(0, 2)
	b.AddEdge(1, 0)
	g := b.Build()

	m, err := FromGraph(g, 5, 3, []VID{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	// No constrained cycle exists, so both cover vertices are redundant.
	if removed := m.Reminimize(); removed != 2 {
		t.Fatalf("Reminimize removed %d, want 2", removed)
	}
	if ok, w := verify.IsValid(m.Snapshot(), 5, 3, m.Cover()); !ok {
		t.Fatalf("cover invalid after reminimize, witness %v", w)
	}
	// Closing 0 -> 2 -> 1 -> 0 routes THROUGH vertex 0: a leaked on-path
	// bit on 0 makes the search skip it and miss the cycle.
	added := m.InsertEdge(2, 1)
	if added == -1 {
		t.Fatal("insertion closing a triangle through the self-looped vertex went undetected")
	}
	if ok, w := verify.IsValid(m.Snapshot(), 5, 3, m.Cover()); !ok {
		t.Fatalf("cover invalid after insertion, witness %v", w)
	}
}

// FromGraph must reject covers naming vertices the graph does not have
// instead of index-panicking later.
func TestFromGraphCoverOutOfRange(t *testing.T) {
	g := digraph.FromEdges(3, []digraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	if _, err := FromGraph(g, 5, 3, []VID{1, 99}); err == nil {
		t.Fatal("out-of-range cover vertex must be an error")
	}
	if _, err := FromGraph(g, 5, 3, []VID{1}); err != nil {
		t.Fatalf("in-range cover rejected: %v", err)
	}
}

// Deep hop constraint over a dense core: the seed maintainer's recursive
// simple-path DFS was exponential here; the rebuilt search must answer
// from the BFS certificate (or the capped, distance-pruned DFS) and keep
// the cover valid.
func TestDenseCoreDeepK(t *testing.T) {
	const n, core_, k = 80, 40, 8
	rng := rand.New(rand.NewPCG(9, 99))
	m := New(n, k, 3)
	for i := 0; i < 1200; i++ {
		u := VID(rng.IntN(core_))
		v := VID(rng.IntN(core_))
		if rng.IntN(4) == 0 { // a sparse halo around the dense core
			u, v = VID(core_+rng.IntN(n-core_)), VID(rng.IntN(core_))
		}
		m.InsertEdge(u, v)
	}
	if ok, w := verify.IsValid(m.Snapshot(), k, 3, m.Cover()); !ok {
		t.Fatalf("cover invalid on dense core, witness %v", w)
	}
	m.Reminimize()
	snap := digraph.Materialize(m.Snapshot())
	if ok, w := verify.IsValid(snap, k, 3, m.Cover()); !ok {
		t.Fatalf("cover invalid after reminimize, witness %v", w)
	}
	if ok, red := verify.IsMinimal(snap, k, 3, m.Cover()); !ok {
		t.Fatalf("cover not minimal after reminimize: %v", red)
	}
}

// ApplyBatch and the one-at-a-time surface must agree on the graph and
// both maintain valid covers (the covers themselves may differ: deferral
// reorders the queries).
func TestApplyBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 33))
	for iter := 0; iter < 10; iter++ {
		n := 8 + rng.IntN(20)
		k := 3 + rng.IntN(4)
		seq := New(n, k, 3)
		bat := New(n, k, 3)
		var updates []Update
		for step := 0; step < 300; step++ {
			u, v := VID(rng.IntN(n)), VID(rng.IntN(n))
			if rng.IntN(5) == 0 {
				updates = append(updates, DeleteOp(u, v))
			} else {
				updates = append(updates, InsertOp(u, v))
			}
		}
		for _, up := range updates {
			if up.Op == OpInsert {
				seq.InsertEdge(up.U, up.V)
			} else {
				seq.DeleteEdge(up.U, up.V)
			}
		}
		bat.ApplyBatch(updates)
		gs, gb := digraph.Materialize(seq.Snapshot()), digraph.Materialize(bat.Snapshot())
		if gs.NumEdges() != gb.NumEdges() || gs.String() != gb.String() {
			t.Fatalf("iter %d: graphs diverge: %v vs %v", iter, gs, gb)
		}
		for _, e := range gs.Edges() {
			if !gb.HasEdge(e.U, e.V) {
				t.Fatalf("iter %d: batch graph missing edge %v", iter, e)
			}
		}
		if ok, w := verify.IsValid(gs, k, 3, seq.Cover()); !ok {
			t.Fatalf("iter %d: sequential cover invalid, witness %v", iter, w)
		}
		if ok, w := verify.IsValid(gb, k, 3, bat.Cover()); !ok {
			t.Fatalf("iter %d: batch cover invalid, witness %v", iter, w)
		}
	}
}

// A wide batch: 200 disjoint triangles closed in one ApplyBatch must yield
// exactly one cover vertex per triangle.
func TestApplyBatchManyTriangles(t *testing.T) {
	const tris = 200
	m := New(3*tris, 5, 3)
	var closing []Update
	for i := 0; i < tris; i++ {
		a, b, c := VID(3*i), VID(3*i+1), VID(3*i+2)
		m.InsertEdge(a, b)
		m.InsertEdge(b, c)
		closing = append(closing, InsertOp(c, a))
	}
	if m.CoverSize() != 0 {
		t.Fatalf("no cycles yet, cover size %d", m.CoverSize())
	}
	added := m.ApplyBatch(closing)
	if len(added) != tris || m.CoverSize() != tris {
		t.Fatalf("closed %d triangles, got %d additions (cover %d)", tris, len(added), m.CoverSize())
	}
	if ok, w := verify.IsValid(m.Snapshot(), 5, 3, m.Cover()); !ok {
		t.Fatalf("cover invalid, witness %v", w)
	}
}

// Deleting a base edge, re-inserting it, and compacting must round-trip
// through the overlay row without losing or duplicating edges.
func TestDeltaTombstoneRoundTrip(t *testing.T) {
	g := digraph.FromEdges(4, []digraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}})
	m, err := FromGraph(g, 5, 3, []VID{0})
	if err != nil {
		t.Fatal(err)
	}
	if !m.DeleteEdge(1, 2) || m.HasEdge(1, 2) || m.NumEdges() != 3 {
		t.Fatal("base-edge delete failed")
	}
	if m.DeleteEdge(1, 2) {
		t.Fatal("double delete must report false")
	}
	// Re-inserting restores the base row. The re-closed triangle runs
	// through the covered vertex 0, so the search must find no uncovered
	// cycle and leave the cover alone.
	if m.InsertEdge(1, 2) != -1 {
		t.Fatal("re-insert must not grow the cover: the only cycle runs through the covered vertex")
	}
	if !m.HasEdge(1, 2) || m.NumEdges() != 4 {
		t.Fatal("base-edge re-insert failed")
	}
	snap := digraph.Materialize(m.Snapshot())
	if snap.NumEdges() != 4 || !snap.HasEdge(1, 2) {
		t.Fatalf("compaction lost edges: %v", snap)
	}
	// And dropping an edge inserted since the compaction.
	m.InsertEdge(3, 0)
	if !m.DeleteEdge(3, 0) || m.HasEdge(3, 0) {
		t.Fatal("delta delete failed")
	}
	if got := m.Snapshot().NumEdges(); got != 4 {
		t.Fatalf("edge count after delta round trip = %d, want 4", got)
	}
}

// The central streaming property: a maintainer driven by a random
// insert/delete/Reminimize stream — self-loops, batches and mid-stream
// Grow included — keeps a cover that verify accepts after every batch,
// cross-checked against a fresh static solve on the final snapshot.
func TestBatchChurnPropertyStream(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 111))
	for iter := 0; iter < 8; iter++ {
		n := 10 + rng.IntN(20)
		k := 3 + rng.IntN(5)
		// Seed with a graph that carries self-loops, as real snapshots do.
		b := digraph.NewBuilder(n)
		b.KeepSelfLoops = true
		for i := 0; i < n; i++ {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		g := b.Build()
		res, err := core.Compute(g, core.TDBPlusPlus, core.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		m, err := FromGraph(g, k, 3, res.Cover)
		if err != nil {
			t.Fatal(err)
		}
		var present []digraph.Edge
		for _, e := range g.Edges() {
			present = append(present, e)
		}
		for batch := 0; batch < 12; batch++ {
			var ups []Update
			for step := 0; step < 40; step++ {
				switch {
				case len(present) > 0 && rng.IntN(4) == 0:
					i := rng.IntN(len(present))
					e := present[i]
					ups = append(ups, DeleteOp(e.U, e.V))
					present[i] = present[len(present)-1]
					present = present[:len(present)-1]
				case rng.IntN(20) == 0: // self-loop insert attempts are no-ops
					v := VID(rng.IntN(m.NumVertices()))
					ups = append(ups, InsertOp(v, v))
				default:
					u := VID(rng.IntN(m.NumVertices()))
					v := VID(rng.IntN(m.NumVertices()))
					ups = append(ups, InsertOp(u, v))
					if u != v {
						present = append(present, digraph.Edge{U: u, V: v})
					}
				}
			}
			if batch == 5 { // mid-stream growth
				m.Grow(m.NumVertices() + 5)
			}
			m.ApplyBatch(ups)
			// present may hold duplicates/stale entries; that only makes
			// some updates no-ops, which is part of the property.
			if ok, w := verify.IsValid(m.Snapshot(), k, 3, m.Cover()); !ok {
				t.Fatalf("iter %d batch %d: cover invalid, witness %v", iter, batch, w)
			}
			if batch%4 == 3 {
				m.Reminimize()
				snap := digraph.Materialize(m.Snapshot())
				if ok, w := verify.IsValid(snap, k, 3, m.Cover()); !ok {
					t.Fatalf("iter %d batch %d: invalid after reminimize, witness %v", iter, batch, w)
				}
				if ok, red := verify.IsMinimal(snap, k, 3, m.Cover()); !ok {
					t.Fatalf("iter %d batch %d: not minimal after reminimize: %v", iter, batch, red)
				}
			}
		}
		// Cross-check against the static solver on the final snapshot.
		snap := digraph.Materialize(m.Snapshot())
		res2, err := core.Compute(snap, core.TDBPlusPlus, core.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if ok, w := verify.IsValid(snap, k, 3, res2.Cover); !ok {
			t.Fatalf("iter %d: static cover invalid on maintained snapshot, witness %v", iter, w)
		}
		if ok, w := verify.IsValid(snap, k, 3, m.Cover()); !ok {
			t.Fatalf("iter %d: maintained cover invalid on final snapshot, witness %v", iter, w)
		}
	}
}

// Reminimize after deletions re-tests only the cover vertices whose
// witness broke, and the result must still be valid and minimal on a
// power-law graph.
func TestDirtyRegionReminimize(t *testing.T) {
	g := gen.PowerLaw(400, 2400, 2.2, 0.3, 21)
	res, err := core.Compute(g, core.TDBPlusPlus, core.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromGraph(g, 5, 3, res.Cover)
	if err != nil {
		t.Fatal(err)
	}
	m.Reminimize() // re-tests the whole seeded cover, giving each a witness

	rng := rand.New(rand.NewPCG(8, 88))
	for round := 0; round < 6; round++ {
		// Delete a slice of edges, then insert a few fresh ones.
		for _, e := range g.Edges() {
			if rng.IntN(10) == 0 {
				m.DeleteEdge(e.U, e.V)
			}
		}
		for i := 0; i < 30; i++ {
			m.InsertEdge(VID(rng.IntN(400)), VID(rng.IntN(400)))
		}
		m.Reminimize()
		snap := digraph.Materialize(m.Snapshot())
		if ok, w := verify.IsValid(snap, 5, 3, m.Cover()); !ok {
			t.Fatalf("round %d: invalid after reminimize, witness %v", round, w)
		}
		if ok, red := verify.IsMinimal(snap, 5, 3, m.Cover()); !ok {
			t.Fatalf("round %d: reminimize missed redundant vertices %v", round, red)
		}
	}
}

// A second Reminimize with no intervening updates must be a no-op that
// skips the pass entirely (no witness broke).
func TestReminimizeIdempotentFast(t *testing.T) {
	m := New(3, 5, 3)
	m.InsertEdge(0, 1)
	m.InsertEdge(1, 2)
	m.InsertEdge(2, 0)
	m.Reminimize()
	_, _, checksBefore, _ := m.Stats()
	if removed := m.Reminimize(); removed != 0 {
		t.Fatalf("idle reminimize removed %d", removed)
	}
	if _, _, checksAfter, _ := m.Stats(); checksAfter != checksBefore {
		t.Fatalf("idle reminimize ran %d cycle checks", checksAfter-checksBefore)
	}
}
