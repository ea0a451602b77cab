package dynamic

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"tdb/internal/core"
	"tdb/internal/cycle"
	"tdb/internal/digraph"
)

// checkCoverOracle fails unless cover is a valid and minimal cover of g
// against the full cycle list of the Enumerator: every constrained cycle
// holds a cover vertex, and every cover vertex is the only cover vertex
// of some cycle.
func checkCoverOracle(t *testing.T, what string, g digraph.Adjacency, k, minLen int, cover []VID) {
	t.Helper()
	in := make([]bool, g.NumVertices())
	for _, v := range cover {
		in[v] = true
	}
	sole := make([]bool, g.NumVertices())
	for _, c := range cycle.NewEnumerator(g, k, minLen, nil).All() {
		hits, last := 0, VID(0)
		for _, x := range c {
			if in[x] {
				hits, last = hits+1, x
			}
		}
		switch hits {
		case 0:
			t.Fatalf("%s: cycle %v is uncovered by %v", what, c, cover)
		case 1:
			sole[last] = true
		}
	}
	for _, v := range cover {
		if !sole[v] {
			t.Fatalf("%s: cover vertex %d of %v is redundant", what, v, cover)
		}
	}
}

// checkWitnesses fails unless every witness m holds proves its owner
// necessary (a constrained cycle of live edges whose only covered vertex
// is the owner), the inverted index lists exactly the witnesses' slots,
// and every cover vertex without a witness is queued for a re-test.
func checkWitnesses(t *testing.T, what string, m *Maintainer) {
	t.Helper()
	w := &m.wit
	entries := 0
	broken, unknown := 0, 0
	for v := range m.n {
		c, r := w.cycle(VID(v)), w.reason[v]
		switch {
		case m.active[v] && (len(c) > 0 || r != 0):
			t.Fatalf("%s: uncovered %d holds witness %v, re-test reason %d", what, v, c, r)
		case !m.active[v] && (len(c) > 0) == (r != 0):
			t.Fatalf("%s: cover vertex %d holds witness %v with re-test reason %d", what, v, c, r)
		case r == retestBroken:
			broken++
		case r == retestUnknown:
			unknown++
		}
		if r != 0 && !slices.Contains(m.wit.queue, VID(v)) {
			t.Fatalf("%s: %d has re-test reason %d but is not queued", what, v, r)
		}
		if len(c) == 0 {
			continue
		}
		entries += len(c)
		if len(c) < m.minLen || len(c) > m.k || slices.Index(c, VID(v)) < 0 {
			t.Fatalf("%s: witness %v of %d has the wrong shape", what, c, v)
		}
		for i, x := range c {
			if x != VID(v) && !m.active[x] {
				t.Fatalf("%s: witness %v of %d passes covered %d", what, c, v, x)
			}
			if !m.HasEdge(x, c[(i+1)%len(c)]) {
				t.Fatalf("%s: witness %v of %d uses a missing edge", what, c, v)
			}
			if slices.Index(c, x) != i {
				t.Fatalf("%s: witness %v of %d repeats %d", what, c, v, x)
			}
		}
	}
	// Every listed slot is a live slot of its vertex; as many are listed
	// as the witnesses hold, so each is listed exactly once.
	listed := 0
	for x := range m.n {
		for s := w.head[x]; s >= 0; s = w.next[s] {
			o := w.owner[s]
			if w.vert[s] != VID(x) || s < w.first[o] || s >= w.first[o]+w.size[o] {
				t.Fatalf("%s: vertex %d lists slot %d of %d's witness %v", what, x, s, o, w.cycle(o))
			}
			if listed++; listed > entries {
				t.Fatalf("%s: index lists more slots than the witnesses hold (%d)", what, entries)
			}
		}
	}
	free := 0
	for l, runs := range w.free {
		free += l * len(runs)
	}
	if listed != entries || len(w.vert)-free != entries {
		t.Fatalf("%s: index lists %d slots, arena holds %d live, witnesses %d", what, listed, len(w.vert)-free, entries)
	}
	if b, u := m.Witnesses(); b != broken || u != unknown {
		t.Fatalf("%s: Witnesses() = %d broken, %d unknown; counted %d, %d", what, b, u, broken, unknown)
	}
}

// TestReminimizeMinimalAgainstEnumerator is the publish-path property: on
// small random graphs and update streams, after every batch the cover is
// valid and every witness holds, and after every Reminimize (what tdbserve
// runs at a publish) the cover is also minimal, both against the
// Enumerator. The runs start from a solved cover with unknown witnesses;
// every vertex an insertion query covers comes with its witness, so the
// unknown count never grows. The insertion queries run uncapped; the case
// name is kept from when a capped DFS was tested beside it.
func TestReminimizeMinimalAgainstEnumerator(t *testing.T) {
	t.Run("capped=false", func(t *testing.T) {
		for seed := uint64(1); seed <= 60; seed++ {
			witnessStream(t, seed)
		}
	})
}

// witnessStream runs one random stream.
func witnessStream(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 26))
	n := 6 + rng.IntN(8)
	k := 3 + rng.IntN(3)
	minLen := 2 + rng.IntN(2)
	b := digraph.NewBuilder(n)
	for i := rng.IntN(2 * n); i > 0; i-- {
		b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
	}
	g := b.Build()
	res, err := core.Compute(g, core.TDBPlusPlus, core.Options{K: k, MinLen: minLen})
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromGraph(g, k, minLen, res.Cover)
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 30; batch++ {
		what := fmt.Sprintf("seed %d (n=%d k=%d minLen=%d) batch %d", seed, n, k, minLen, batch)
		if rng.IntN(8) == 0 {
			m.Grow(m.NumVertices() + 1)
		}
		nv := m.NumVertices()
		ups := make([]Update, 1+rng.IntN(6))
		for i := range ups {
			u, v := VID(rng.IntN(nv)), VID(rng.IntN(nv))
			if row := m.Out(u); rng.IntN(3) == 0 && len(row) > 0 {
				ups[i] = DeleteOp(u, row[rng.IntN(len(row))])
			} else {
				ups[i] = InsertOp(u, v)
			}
		}
		_, before := m.Witnesses()
		added := m.ApplyBatch(ups)
		if _, after := m.Witnesses(); after > before {
			t.Fatalf("%s: %d unknown before, %d after adding %v", what, before, after, added)
		}
		checkWitnesses(t, what, m)
		if rng.IntN(3) > 0 {
			continue
		}
		broken, unknown := m.Witnesses()
		p := m.ReminimizePass()
		if p.Retested != broken+unknown || p.Retested < len(p.Removed) {
			t.Fatalf("%s: pass %+v", what, p)
		}
		checkWitnesses(t, what+" after Reminimize", m)
		if b, u := m.Witnesses(); b+u != 0 {
			t.Fatalf("%s: %d broken, %d unknown after Reminimize", what, b, u)
		}
		checkCoverOracle(t, what, m.Snapshot(), k, minLen, m.Cover())
	}
}

// TestWitnessBreaks: deleting a witness edge and covering a witness vertex
// each queue exactly the owner they break; inserting edges and growing
// queue nothing.
func TestWitnessBreaks(t *testing.T) {
	// Two triangles, 0->1->2->0 and 3->4->5->3: the closing edges cover
	// 2 and 5.
	m := New(6, 3, 3)
	for _, e := range [][2]VID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		m.InsertEdge(e[0], e[1])
	}
	if !slices.Equal(m.Cover(), []VID{2, 5}) {
		t.Fatalf("cover %v after two triangles, want [2 5]", m.Cover())
	}
	checkWitnesses(t, "two triangles", m)
	m.InsertEdge(1, 5)
	m.Grow(8)
	if b, u := m.Witnesses(); b+u != 0 {
		t.Fatalf("insert and grow queued %d broken, %d unknown", b, u)
	}
	m.DeleteEdge(3, 4) // the only edge 5's witness loses
	if b, _ := m.Witnesses(); b != 1 || m.wit.reason[5] != retestBroken {
		t.Fatalf("deleting a witness edge queued %d owners, want 5 alone", b)
	}
	// A triangle through 1 covers 1, the hub, which breaks 2's witness.
	m.InsertEdge(1, 6)
	m.InsertEdge(6, 7)
	if added := m.InsertEdge(7, 1); added != 1 {
		t.Fatalf("closing 1->6->7->1 covered %d, want 1", added)
	}
	if b, _ := m.Witnesses(); b != 2 || m.wit.reason[2] != retestBroken {
		t.Fatalf("covering a witness vertex left %d broken, want 2 and 5", b)
	}
	checkWitnesses(t, "after the breaks", m)
	if removed := m.ReminimizePass().Removed; !slices.Equal(removed, []VID{2, 5}) {
		t.Fatalf("Reminimize removed %v, want [2 5]", removed)
	}
	checkWitnesses(t, "after Reminimize", m)
	if b, u := m.Witnesses(); b+u != 0 {
		t.Fatalf("Reminimize left %d broken, %d unknown", b, u)
	}
}

// TestReminimizeRetestsOnlyBroken: once every witness is known, a pass
// after deletions re-tests only the owners of the witnesses they broke,
// far fewer than the cover, and leaves a minimal cover.
func TestReminimizeRetestsOnlyBroken(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 26))
	const n, k = 300, 4
	b := digraph.NewBuilder(n)
	for i := 0; i < 3*n; i++ {
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
	if _, unknown := m.Witnesses(); unknown != m.CoverSize() {
		t.Fatalf("%d of the seeded cover's %d vertices unknown", unknown, m.CoverSize())
	}
	if p := m.ReminimizePass(); p.Retested != m.CoverSize()+len(p.Removed) {
		t.Fatalf("first pass %+v, want the whole seeded cover (%d) re-tested as unknown", p, m.CoverSize())
	}
	edges := g.Edges()
	for i := 0; i < 10; i++ {
		e := edges[rng.IntN(len(edges))]
		m.DeleteEdge(e.U, e.V)
	}
	broken, _ := m.Witnesses()
	p := m.ReminimizePass()
	if p.Retested != broken || p.Retested*4 > m.CoverSize() {
		t.Fatalf("pass %+v after 10 deletes, %d broken, cover %d", p, broken, m.CoverSize())
	}
	checkWitnesses(t, "after deletes", m)
	checkCoverOracle(t, "after deletes", m.Snapshot(), k, 3, m.Cover())
}
