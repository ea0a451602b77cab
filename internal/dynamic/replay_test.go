package dynamic

import (
	"bytes"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"

	"tdb/internal/core"
	"tdb/internal/digraph"
)

// sameCSR fails unless got and want hold the same vertex count, edge count
// and out- and in-rows. Equal rows in vertex order are equal CSR arrays:
// the index arrays are the rows' prefix sums, the adjacency arrays their
// concatenation.
func sameCSR(t *testing.T, what string, got, want digraph.Adjacency) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: n=%d m=%d, want n=%d m=%d", what,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := 0; v < want.NumVertices(); v++ {
		if !slices.Equal(got.Out(VID(v)), want.Out(VID(v))) {
			t.Fatalf("%s: out-row %d = %v, want %v", what, v, got.Out(VID(v)), want.Out(VID(v)))
		}
		if !slices.Equal(got.In(VID(v)), want.In(VID(v))) {
			t.Fatalf("%s: in-row %d = %v, want %v", what, v, got.In(VID(v)), want.In(VID(v)))
		}
	}
}

// selfLoopBase is a random graph on n vertices that keeps a few self-loops,
// the shape FromGraph may adopt from a KeepSelfLoops build.
func selfLoopBase(rng *rand.Rand, n, m int) *digraph.Graph {
	b := digraph.NewBuilder(n)
	b.KeepSelfLoops = true
	for i := 0; i < m; i++ {
		u := VID(rng.IntN(n))
		v := VID(rng.IntN(n))
		if i%10 == 0 {
			v = u
		}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// TestCompactMatchesBuilder: the merged compaction must produce exactly
// the CSR a KeepSelfLoops Builder gives for the same live edges, over
// random streams that delete and re-insert base edges (tombstone cancels),
// grow past the base, and start from bases with self-loops, in memory and
// mapped.
func TestCompactMatchesBuilder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mapped bool
	}{{"memory", false}, {"mapped", true}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				compactStream(t, seed, tc.mapped)
			}
		})
	}
}

func compactStream(t *testing.T, seed uint64, mapped bool) {
	rng := rand.New(rand.NewPCG(seed, 41))
	const n0 = 40
	g := selfLoopBase(rng, n0, 160)
	var base digraph.Adjacency = g
	if mapped {
		path := filepath.Join(t.TempDir(), "base.tdbcsr")
		if err := digraph.WriteMapped(path, g); err != nil {
			t.Fatal(err)
		}
		mg, err := digraph.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mg.Close() })
		base = mg
	}
	m, err := FromGraph(base, 5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[digraph.Edge]bool)
	for _, e := range g.Edges() {
		live[e] = true
	}
	baseEdges := g.Edges()
	for round := 0; round < 30; round++ {
		if rng.IntN(6) == 0 {
			m.Grow(m.NumVertices() + 1 + rng.IntN(3))
		}
		n := m.NumVertices()
		ups := make([]Update, 0, 40)
		for i := 0; i < 40; i++ {
			var e digraph.Edge
			switch r := rng.IntN(6); {
			case r < 2: // delete or re-insert a base edge (tombstone, cancel)
				e = baseEdges[rng.IntN(len(baseEdges))]
			default:
				e = digraph.Edge{U: VID(rng.IntN(n)), V: VID(rng.IntN(n))}
			}
			if rng.IntN(3) == 0 {
				ups = append(ups, DeleteOp(e.U, e.V))
				delete(live, e)
			} else {
				ups = append(ups, InsertOp(e.U, e.V))
				if e.U != e.V {
					live[e] = true
				}
			}
		}
		m.ApplyBatch(ups)
		if rng.IntN(3) > 0 {
			continue // let the deltas pile up across rounds
		}
		b := digraph.NewBuilder(m.NumVertices())
		b.KeepSelfLoops = true
		for e := range live {
			b.AddEdge(e.U, e.V)
		}
		sameCSR(t, "compaction", m.Snapshot(), b.Build())
	}
}

// recordedBatch is one ApplyBatch call and its cover decisions.
type recordedBatch struct {
	growTo  int
	updates []Update
	added   []VID
}

// churnBatches drives m with random batches of inserts, deletes of live
// edges and insert-delete-insert toggles (with an occasional Grow) and
// returns what each batch did.
func churnBatches(rng *rand.Rand, m *Maintainer, batches, size int) []recordedBatch {
	out := make([]recordedBatch, 0, batches)
	for b := 0; b < batches; b++ {
		if rng.IntN(10) == 0 {
			m.Grow(m.NumVertices() + 1 + rng.IntN(4))
		}
		n := m.NumVertices()
		ups := make([]Update, 0, size)
		for len(ups) < size {
			u, v := VID(rng.IntN(n)), VID(rng.IntN(n))
			switch rng.IntN(8) {
			case 0, 1:
				ups = append(ups, DeleteOp(u, v))
				if row := m.outInto(u, nil); len(row) > 0 {
					ups = append(ups, DeleteOp(u, row[rng.IntN(len(row))]))
				}
			case 2:
				ups = append(ups, InsertOp(u, v), DeleteOp(u, v), InsertOp(u, v))
			default:
				ups = append(ups, InsertOp(u, v))
			}
		}
		added := m.ApplyBatch(ups)
		out = append(out, recordedBatch{growTo: m.NumVertices(), updates: ups, added: added})
	}
	return out
}

func writeState(t *testing.T, m *Maintainer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayBatchMatchesApplyBatch: replaying each batch with the cover
// vertices ApplyBatch logged for it must rebuild the live maintainer's
// state byte for byte, across natural compactions and at checkpoints taken
// mid-stream (which compact both sides at the same point, as a server
// checkpoint does).
func TestReplayBatchMatchesApplyBatch(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		g := selfLoopBase(rng, 120, 420)
		res, err := core.Compute(g, core.TDBPlusPlus, core.Options{K: 5, MinLen: 3})
		if err != nil {
			t.Fatal(err)
		}
		live, err := FromGraph(g, 5, 3, res.Cover)
		if err != nil {
			t.Fatal(err)
		}
		replica, err := FromGraph(g, 5, 3, res.Cover)
		if err != nil {
			t.Fatal(err)
		}
		const steps = 4
		for step := 0; step < steps; step++ {
			for i, b := range churnBatches(rng, live, 100, 32) {
				replica.Grow(b.growTo)
				if err := replica.ReplayBatch(b.updates, b.added); err != nil {
					t.Fatalf("seed %d step %d batch %d: %v", seed, step, i, err)
				}
			}
			if !bytes.Equal(writeState(t, replica), writeState(t, live)) {
				t.Fatalf("seed %d step %d: replayed state differs from the live maintainer", seed, step)
			}
		}
		// Each checkpoint compacts once; the policy must have fired too.
		if live.Compactions() <= steps || replica.Compactions() != live.Compactions() {
			t.Fatalf("seed %d: compactions live %d replica %d, want equal and > %d",
				seed, live.Compactions(), replica.Compactions(), steps)
		}
	}
}

// TestReplayBatchRefusesCorruptAdds: a logged cover vertex out of range,
// already covered, or named twice is an error that leaves the maintainer
// untouched — never a double-counted cover.
func TestReplayBatchRefusesCorruptAdds(t *testing.T) {
	m, err := FromGraph(digraph.FromEdges(4, []digraph.Edge{{U: 0, V: 1}}), 5, 3, []VID{1})
	if err != nil {
		t.Fatal(err)
	}
	before := writeState(t, m)
	ups := []Update{InsertOp(1, 2), DeleteOp(0, 1)}
	for _, added := range [][]VID{
		{4},       // out of range
		{2, 1},    // already covered
		{0, 3, 0}, // named twice
	} {
		if err := m.ReplayBatch(ups, added); err == nil {
			t.Fatalf("ReplayBatch accepted cover delta %v", added)
		}
		if got := writeState(t, m); !bytes.Equal(got, before) {
			t.Fatalf("refused cover delta %v changed the state", added)
		}
		if m.CoverSize() != 1 || !slices.Equal(m.Cover(), []VID{1}) {
			t.Fatalf("refused cover delta %v left cover %v", added, m.Cover())
		}
	}
	if err := m.ReplayBatch([]Update{InsertOp(0, 9)}, nil); err == nil {
		t.Fatal("ReplayBatch accepted an out-of-range update")
	}
	if err := m.ReplayBatch(ups, []VID{3, 0}); err != nil {
		t.Fatal(err)
	}
	if m.CoverSize() != 3 || !slices.Equal(m.Cover(), []VID{0, 1, 3}) || m.HasEdge(0, 1) || !m.HasEdge(1, 2) {
		t.Fatalf("valid replay: cover %v (size %d), edges 0->1 %v 1->2 %v",
			m.Cover(), m.CoverSize(), m.HasEdge(0, 1), m.HasEdge(1, 2))
	}
}
