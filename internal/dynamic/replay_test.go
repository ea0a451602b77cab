package dynamic

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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
// random streams that delete and re-insert base edges,
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
			case r < 2: // delete or re-insert a base edge
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
			continue // let the overlay pile up across rounds
		}
		b := digraph.NewBuilder(m.NumVertices())
		b.KeepSelfLoops = true
		for e := range live {
			b.AddEdge(e.U, e.V)
		}
		sameCSR(t, "compaction", m.Snapshot(), b.Build())
	}
}

// TestCompactMatchesFromSortedRows: the row-patching compaction must build
// the very CSR arrays FromSortedRows builds from the live out-rows, over
// random edit sets touching few or many rows (base-edge deletes, their
// re-inserts, new edges), with Grow before and between them, from a self-loop
// base in memory and mapped.
func TestCompactMatchesFromSortedRows(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 25))
		g := selfLoopBase(rng, 30+rng.IntN(30), 200)
		var base digraph.Adjacency = g
		if seed%2 == 0 {
			path := filepath.Join(t.TempDir(), "base.tdbcsr")
			if err := digraph.WriteMapped(path, g); err != nil {
				t.Fatal(err)
			}
			mg, err := digraph.OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mg.Close()
			base = mg
		}
		m, err := FromGraph(base, 4, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 12; round++ {
			if rng.IntN(3) == 0 {
				m.Grow(m.NumVertices() + rng.IntN(4))
			}
			n := m.NumVertices()
			hot := 1 + rng.IntN(n) // rows the round's updates touch
			for i := rng.IntN(60); i > 0; i-- {
				u, v := VID(rng.IntN(hot)), VID(rng.IntN(n))
				if row := m.Out(u); rng.IntN(2) == 0 && len(row) > 0 {
					m.DeleteEdge(u, row[rng.IntN(len(row))])
				} else {
					m.InsertEdge(u, v)
				}
			}
			want := digraph.FromSortedRows(m.n, m.m, func(dst []VID, u VID) []VID {
				return append(dst, m.Out(u)...)
			})
			got := m.compact()
			if !reflect.DeepEqual(digraph.Materialize(got), want) {
				t.Fatalf("seed %d round %d: compaction differs from FromSortedRows", seed, round)
			}
		}
	}
}

// churnBatches drives m with random batches (each after an occasional
// Grow, a fifth followed by a Reminimize) and returns them as logged:
// inserts of random pairs, inserts duplicating a live edge, deletes of
// random (mostly absent) pairs and of live edges (base self-loops
// included), insert-delete-insert toggles, and re-inserts of edges an
// earlier batch deleted.
func churnBatches(rng *rand.Rand, m *Maintainer, batches, size int) []Batch {
	out := make([]Batch, 0, batches)
	var deleted []digraph.Edge
	for b := 0; b < batches; b++ {
		if rng.IntN(10) == 0 {
			m.Grow(m.NumVertices() + 1 + rng.IntN(4))
		}
		n := m.NumVertices()
		ups := make([]Update, 0, size)
		for len(ups) < size {
			u, v := VID(rng.IntN(n)), VID(rng.IntN(n))
			row := m.Out(u)
			switch r := rng.IntN(10); {
			case r == 0:
				ups = append(ups, DeleteOp(u, v))
			case r <= 2 && len(row) > 0:
				w := row[rng.IntN(len(row))]
				ups = append(ups, DeleteOp(u, w))
				deleted = append(deleted, digraph.Edge{U: u, V: w})
			case r == 3:
				ups = append(ups, InsertOp(u, v), DeleteOp(u, v), InsertOp(u, v))
			case r == 4 && len(deleted) > 0:
				e := deleted[rng.IntN(len(deleted))]
				ups = append(ups, InsertOp(e.U, e.V))
			case r == 5 && len(row) > 0:
				ups = append(ups, InsertOp(u, row[rng.IntN(len(row))]))
			default:
				ups = append(ups, InsertOp(u, v))
			}
		}
		b := Batch{GrowTo: m.NumVertices(), Updates: ups, Added: m.ApplyBatch(ups)}
		if rng.IntN(5) == 0 {
			b.Removed = m.ReminimizePass().Removed
		}
		out = append(out, b)
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

// sameReplayState fails unless got and want serialize to the same bytes
// and count the same inserts, deletes and cover additions. Cycle-check
// counts differ by design (replay searches nothing), and so do the
// witnesses: replay adopts its cover vertices without one.
func sameReplayState(t *testing.T, what string, got, want *Maintainer) {
	t.Helper()
	if !bytes.Equal(writeState(t, got), writeState(t, want)) {
		t.Fatalf("%s: state differs (n=%d m=%d cover %d, want n=%d m=%d cover %d)", what,
			got.NumVertices(), got.NumEdges(), got.CoverSize(), want.NumVertices(), want.NumEdges(), want.CoverSize())
	}
	gi, gd, _, ga := got.Stats()
	wi, wd, _, wa := want.Stats()
	if gi != wi || gd != wd || ga != wa {
		t.Fatalf("%s: inserts/deletes/cover adds %d/%d/%d, want %d/%d/%d", what, gi, gd, ga, wi, wd, wa)
	}
}

// TestReplayBatchesMatchesApplyBatch: replaying a logged tail in one call
// must rebuild exactly the state ApplyBatch and Reminimize left on the
// live maintainer, for tails long enough to cross natural compactions and
// Grow calls, from a base with self-loops. Afterwards both sides must
// reminimize alike although they hold different witnesses, and decide new
// batches alike.
func TestReplayBatchesMatchesApplyBatch(t *testing.T) {
	removals := 0
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
		compactedMidTail := false
		for step, size := range []int{100, 1, 3, 40, 2, 200} {
			if step%2 == 1 {
				a, b := live.ReminimizePass(), replica.ReminimizePass()
				if !slices.Equal(a.Removed, b.Removed) {
					t.Fatalf("seed %d step %d: Reminimize removed %v live, %v replayed", seed, step, a.Removed, b.Removed)
				}
			}
			before := live.Compactions()
			tail := churnBatches(rng, live, size, 32)
			compactedMidTail = compactedMidTail || live.Compactions() > before
			if applied, err := replica.ReplayBatches(tail); err != nil || applied != len(tail) {
				t.Fatalf("seed %d step %d: applied %d of %d: %v", seed, step, applied, len(tail), err)
			}
			sameReplayState(t, fmt.Sprintf("seed %d step %d", seed, step), replica, live)
			for _, b := range tail {
				removals += len(b.Removed)
			}
		}
		if !compactedMidTail {
			t.Fatalf("seed %d: no tail crossed a compaction", seed)
		}
		for i := 0; i < 20; i++ {
			ups := make([]Update, 0, 16)
			n := live.NumVertices()
			for len(ups) < cap(ups) {
				ups = append(ups, InsertOp(VID(rng.IntN(n)), VID(rng.IntN(n))))
			}
			if a, b := live.ApplyBatch(ups), replica.ApplyBatch(ups); !slices.Equal(a, b) {
				t.Fatalf("seed %d: after replay, batch %d added %v live, %v replayed", seed, i, a, b)
			}
		}
		sameReplayState(t, fmt.Sprintf("seed %d after further batches", seed), replica, live)
	}
	if removals == 0 {
		t.Fatal("no replayed batch carried a removal")
	}
}

// TestReplayBatchesRefusesCorruptAdds: a logged cover vertex out of range,
// already covered, or named twice, within one batch or across the tail,
// and an update out of range of its batch's vertex count, stop the replay
// at that batch: the batches before it are applied and nothing else
// changes — never a double-counted cover.
func TestReplayBatchesRefusesCorruptAdds(t *testing.T) {
	fresh := func() *Maintainer {
		m, err := FromGraph(digraph.FromEdges(4, []digraph.Edge{{U: 0, V: 1}}), 5, 3, []VID{1})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := fresh()
	before := writeState(t, m)
	ups := []Update{InsertOp(1, 2), DeleteOp(0, 1)}
	for _, added := range [][]VID{
		{4},       // out of range
		{2, 1},    // already covered
		{0, 3, 0}, // named twice
	} {
		if applied, err := m.ReplayBatches([]Batch{{Updates: ups, Added: added}}); err == nil || applied != 0 {
			t.Fatalf("ReplayBatches applied %d with cover delta %v (err %v)", applied, added, err)
		}
		if got := writeState(t, m); !bytes.Equal(got, before) {
			t.Fatalf("refused cover delta %v changed the state", added)
		}
		if m.CoverSize() != 1 || !slices.Equal(m.Cover(), []VID{1}) {
			t.Fatalf("refused cover delta %v left cover %v", added, m.Cover())
		}
	}

	tail := []Batch{
		{Updates: ups, Added: []VID{3}},
		{GrowTo: 6, Updates: []Update{InsertOp(4, 5), InsertOp(5, 0)}},
	}
	for _, tc := range []struct {
		name    string
		bad     Batch
		applied int
	}{
		{"vertex named again", Batch{Updates: []Update{InsertOp(2, 3)}, Added: []VID{3}}, 2},
		{"update out of range", Batch{Updates: []Update{InsertOp(2, 6)}}, 2},
		{"update before its grow", Batch{Updates: []Update{InsertOp(0, 5)}}, 0},
	} {
		full := slices.Insert(slices.Clone(tail), tc.applied, tc.bad)
		m := fresh()
		applied, err := m.ReplayBatches(full)
		if err == nil || applied != tc.applied || !strings.Contains(err.Error(), fmt.Sprintf("batch %d:", tc.applied)) {
			t.Fatalf("%s: applied %d (err %v), want %d and an error naming batch %d", tc.name, applied, err, tc.applied, tc.applied)
		}
		ref := fresh()
		if _, err := ref.ReplayBatches(full[:tc.applied]); err != nil {
			t.Fatal(err)
		}
		sameReplayState(t, tc.name, m, ref)
	}

	m = fresh()
	if applied, err := m.ReplayBatches(tail); err != nil || applied != 2 {
		t.Fatalf("valid tail: applied %d: %v", applied, err)
	}
	if m.NumVertices() != 6 || !slices.Equal(m.Cover(), []VID{1, 3}) || m.HasEdge(0, 1) ||
		!m.HasEdge(1, 2) || !m.HasEdge(4, 5) || !m.HasEdge(5, 0) {
		t.Fatalf("valid tail: n=%d cover %v, edges 0->1 %v 1->2 %v 4->5 %v 5->0 %v", m.NumVertices(), m.Cover(),
			m.HasEdge(0, 1), m.HasEdge(1, 2), m.HasEdge(4, 5), m.HasEdge(5, 0))
	}
}

// TestReplayBatchesRemovals: logged removals apply after the batch's
// additions, so a vertex may be added and removed by one batch, removed
// and re-added across batches, and a removal must name a vertex covered
// at that point of the tail; anything else stops the replay at that batch
// with the batches before it applied.
func TestReplayBatchesRemovals(t *testing.T) {
	fresh := func() *Maintainer {
		m, err := FromGraph(digraph.FromEdges(4, []digraph.Edge{{U: 0, V: 1}}), 5, 3, []VID{1})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name    string
		tail    []Batch
		applied int
		cover   []VID
	}{
		{"added then removed in one batch", []Batch{{Added: []VID{2}, Removed: []VID{1, 2}}}, 1, []VID{}},
		{"removed then re-added", []Batch{{Removed: []VID{1}}, {Added: []VID{3}}, {Added: []VID{1}, Removed: []VID{3}}}, 3, []VID{1}},
		{"removed twice", []Batch{{Removed: []VID{1}}, {Removed: []VID{1}}}, 1, []VID{}},
		{"removed twice in one batch", []Batch{{Added: []VID{3}}, {Removed: []VID{1, 1}}}, 1, []VID{1, 3}},
		{"never covered", []Batch{{Added: []VID{3}}, {Removed: []VID{2}}}, 1, []VID{1, 3}},
		{"out of range", []Batch{{Removed: []VID{4}}}, 0, []VID{1}},
		{"re-added without a removal", []Batch{{Removed: []VID{1}}, {Added: []VID{1}}, {Added: []VID{1}}}, 2, []VID{1}},
	} {
		m := fresh()
		applied, err := m.ReplayBatches(tc.tail)
		if applied != tc.applied || (err == nil) != (applied == len(tc.tail)) {
			t.Fatalf("%s: applied %d (err %v), want %d", tc.name, applied, err, tc.applied)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("batch %d:", applied)) {
			t.Fatalf("%s: error %q does not name batch %d", tc.name, err, applied)
		}
		if got := m.Cover(); !slices.Equal(got, tc.cover) || m.CoverSize() != len(tc.cover) {
			t.Fatalf("%s: cover %v (size %d), want %v", tc.name, got, m.CoverSize(), tc.cover)
		}
		checkWitnesses(t, tc.name, m)
	}
}

// FuzzReplayBatches checks bulk replay against live ApplyBatch on small
// graphs. The first bytes build a base (self-loops kept); the rest decode
// to batches of inserts and deletes separated by batch breaks that may
// grow the graph or reminimize the live side. Replaying what ApplyBatch
// and Reminimize logged must rebuild the live state exactly, and both
// sides must then reminimize alike and decide a further batch alike.
func FuzzReplayBatches(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0, 3, 3, 0, 0, 1, 0, 7, 1, 0, 5, 0, 1, 0, 0, 1})
	f.Add([]byte{1, 2, 2, 3, 3, 1, 4, 4, 5, 2, 3, 6, 3, 1, 7, 0, 0, 0, 3, 1, 7, 3, 0, 5, 3, 1})
	f.Add([]byte{0, 5, 5, 6, 6, 0, 6, 5, 0, 7, 1, 1, 6, 0, 5, 0, 5, 0, 5, 6, 7, 0, 0, 0, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n0, k, baseBytes = 8, 4, 16
		if len(data) < 2 {
			return
		}
		build := func() *Maintainer {
			b := digraph.NewBuilder(n0)
			b.KeepSelfLoops = true
			for i := 1; i+1 < min(len(data), baseBytes); i += 2 {
				b.AddEdge(VID(data[i]%n0), VID(data[i+1]%n0))
			}
			g := b.Build()
			res, err := core.Compute(g, core.TDBPlusPlus, core.Options{K: k, MinLen: 3})
			if err != nil {
				t.Fatal(err)
			}
			m, err := FromGraph(g, k, 3, res.Cover)
			if err != nil {
				t.Fatal(err)
			}
			if data[0]&1 == 1 {
				m.Reminimize()
			}
			return m
		}
		live, replica := build(), build()
		var tail []Batch
		var ups []Update
		cut := func(reminimize bool) {
			b := Batch{GrowTo: live.NumVertices(), Updates: ups, Added: live.ApplyBatch(ups)}
			if reminimize {
				b.Removed = live.ReminimizePass().Removed
			}
			tail = append(tail, b)
			ups = nil
		}
		for i := baseBytes; i+2 < len(data); i += 3 {
			n := live.NumVertices()
			u, v := VID(int(data[i+1])%n), VID(int(data[i+2])%n)
			switch data[i] % 8 {
			case 7:
				cut(data[i+2]&4 == 4)
				if data[i+1]&1 == 1 && n < 4*n0 {
					live.Grow(n + 1 + int(data[i+2]%3))
				}
			case 5, 6:
				ups = append(ups, DeleteOp(u, v))
			default:
				ups = append(ups, InsertOp(u, v))
			}
		}
		cut(data[0]&2 == 2)
		if applied, err := replica.ReplayBatches(tail); err != nil || applied != len(tail) {
			t.Fatalf("applied %d of %d: %v", applied, len(tail), err)
		}
		sameReplayState(t, "replayed tail", replica, live)
		if a, b := live.ReminimizePass(), replica.ReminimizePass(); !slices.Equal(a.Removed, b.Removed) {
			t.Fatalf("after replay Reminimize removed %v live, %v replayed", a.Removed, b.Removed)
		}
		n := live.NumVertices()
		more := []Update{InsertOp(0, VID(n-1)), InsertOp(VID(n-1), 1), InsertOp(1, 0), DeleteOp(VID(n/2), 0)}
		if a, b := live.ApplyBatch(more), replica.ApplyBatch(more); !slices.Equal(a, b) {
			t.Fatalf("after replay a batch added %v live, %v replayed", a, b)
		}
		sameReplayState(t, "after a further batch", replica, live)
	})
}
