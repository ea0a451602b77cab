package digraph

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if g.AvgDegree() != 0 {
		t.Fatalf("empty graph AvgDegree = %v, want 0", g.AvgDegree())
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g := b.Build()
	if g.NumVertices() != 3 {
		t.Fatalf("n = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("m = %d, want 3", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(2, 0) {
		t.Fatal("missing expected edges")
	}
	if g.HasEdge(1, 0) {
		t.Fatal("unexpected reverse edge")
	}
}

func TestBuilderDropsSelfLoops(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("m = %d, want 1 (self-loop dropped)", g.NumEdges())
	}
}

func TestBuilderKeepSelfLoops(t *testing.T) {
	b := NewBuilder(1)
	b.KeepSelfLoops = true
	b.AddEdge(0, 0)
	g := b.Build()
	if g.NumEdges() != 1 || !g.HasEdge(0, 0) {
		t.Fatal("self-loop should be kept when KeepSelfLoops is set")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(2)
	for i := 0; i < 5; i++ {
		b.AddEdge(0, 1)
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("m = %d, want 1 after dedup", g.NumEdges())
	}
}

func TestBuilderGrowsVertexCount(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9)
	g := b.Build()
	if g.NumVertices() != 10 {
		t.Fatalf("n = %d, want 10", g.NumVertices())
	}
	if d := g.OutDegree(5); d != 1 {
		t.Fatalf("outdeg(5) = %d, want 1", d)
	}
	if d := g.InDegree(9); d != 1 {
		t.Fatalf("indeg(9) = %d, want 1", d)
	}
	if d := g.OutDegree(0); d != 0 {
		t.Fatalf("outdeg(0) = %d, want 0", d)
	}
}

func TestBuildTwicePanics(t *testing.T) {
	b := NewBuilder(1)
	b.Build()
	defer func() {
		if recover() == nil {
			t.Fatal("second Build should panic")
		}
	}()
	b.Build()
}

func TestEnsureVertices(t *testing.T) {
	b := NewBuilder(2)
	b.EnsureVertices(7)
	b.EnsureVertices(3) // no shrink
	if g := b.Build(); g.NumVertices() != 7 {
		t.Fatalf("n = %d, want 7", g.NumVertices())
	}
}

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
	}
	return b.Build()
}

// The out-CSR and in-CSR must describe the same edge set.
func TestInOutDuality(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.IntN(40)
		g := randomGraph(rng, n, rng.IntN(4*n))
		fromOut := map[Edge]bool{}
		for v := 0; v < n; v++ {
			for _, w := range g.Out(VID(v)) {
				fromOut[Edge{VID(v), w}] = true
			}
		}
		fromIn := map[Edge]bool{}
		for v := 0; v < n; v++ {
			for _, u := range g.In(VID(v)) {
				fromIn[Edge{u, VID(v)}] = true
			}
		}
		if !reflect.DeepEqual(fromOut, fromIn) {
			t.Fatalf("iter %d: out-CSR and in-CSR disagree", iter)
		}
		if len(fromOut) != g.NumEdges() {
			t.Fatalf("iter %d: NumEdges=%d but %d distinct edges", iter, g.NumEdges(), len(fromOut))
		}
	}
}

func TestAdjacencySorted(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	g := randomGraph(rng, 60, 400)
	for v := 0; v < g.NumVertices(); v++ {
		out := g.Out(VID(v))
		if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
			t.Fatalf("out-adjacency of %d not sorted: %v", v, out)
		}
		in := g.In(VID(v))
		if !sort.SliceIsSorted(in, func(i, j int) bool { return in[i] < in[j] }) {
			t.Fatalf("in-adjacency of %d not sorted: %v", v, in)
		}
	}
}

func TestHasEdgeAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	n := 30
	g := randomGraph(rng, n, 150)
	want := map[Edge]bool{}
	for _, e := range g.Edges() {
		want[e] = true
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if g.HasEdge(VID(u), VID(v)) != want[Edge{VID(u), VID(v)}] {
				t.Fatalf("HasEdge(%d,%d) mismatch", u, v)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	g := randomGraph(rng, 25, 120)
	tr := g.Transpose()
	if tr.NumVertices() != g.NumVertices() || tr.NumEdges() != g.NumEdges() {
		t.Fatal("transpose changed counts")
	}
	for _, e := range g.Edges() {
		if !tr.HasEdge(e.V, e.U) {
			t.Fatalf("transpose missing reversed edge %v", e)
		}
	}
	// Double transpose restores the original edge set.
	trtr := tr.Transpose()
	if !reflect.DeepEqual(trtr.Edges(), g.Edges()) {
		t.Fatal("double transpose != original")
	}
}

func TestInducedSubgraph(t *testing.T) {
	//    0 -> 1 -> 2 -> 0 ;  2 -> 3
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	sub, oldID := g.InducedSubgraph([]bool{true, false, true, true})
	if sub.NumVertices() != 3 {
		t.Fatalf("sub n = %d, want 3", sub.NumVertices())
	}
	// Kept vertices 0,2,3 become 0,1,2. Surviving edges: 2->0 and 2->3.
	if !reflect.DeepEqual(oldID, []VID{0, 2, 3}) {
		t.Fatalf("oldID = %v", oldID)
	}
	wantEdges := []Edge{{1, 0}, {1, 2}}
	if !reflect.DeepEqual(sub.Edges(), wantEdges) {
		t.Fatalf("sub edges = %v, want %v", sub.Edges(), wantEdges)
	}
}

func TestInducedSubgraphBadMaskPanics(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong mask length")
		}
	}()
	g.InducedSubgraph([]bool{true})
}

func TestEdgesLexOrder(t *testing.T) {
	g := FromEdges(4, []Edge{{3, 0}, {1, 2}, {1, 0}, {0, 3}})
	edges := g.Edges()
	if !sort.SliceIsSorted(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	}) {
		t.Fatalf("edges not in lex order: %v", edges)
	}
}

// Property: building from any edge list yields degree sums equal to m.
func TestDegreeSumsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		b := NewBuilder(0)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(VID(raw[i]%97), VID(raw[i+1]%97))
		}
		g := b.Build()
		var outSum, inSum int
		for v := 0; v < g.NumVertices(); v++ {
			outSum += g.OutDegree(VID(v))
			inSum += g.InDegree(VID(v))
		}
		return outSum == g.NumEdges() && inSum == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexMask(t *testing.T) {
	m := NewVertexMask(4, false)
	if m.NumActive() != 0 || m.Len() != 4 {
		t.Fatal("fresh inactive mask wrong")
	}
	if !m.Activate(2) || m.Activate(2) {
		t.Fatal("Activate change-reporting wrong")
	}
	if m.NumActive() != 1 || !m.Active(2) {
		t.Fatal("activation not recorded")
	}
	if !m.Deactivate(2) || m.Deactivate(2) {
		t.Fatal("Deactivate change-reporting wrong")
	}
	if m.NumActive() != 0 {
		t.Fatal("deactivation not recorded")
	}

	all := NewVertexMask(3, true)
	if all.NumActive() != 3 {
		t.Fatal("all-active mask wrong")
	}
	c := all.Clone()
	c.Deactivate(0)
	if !all.Active(0) || c.Active(0) {
		t.Fatal("Clone is not independent")
	}
	if len(all.Raw()) != 3 {
		t.Fatal("Raw length wrong")
	}
}

// Property: the packed-key Build matches a reference construction that
// sorts (U, V) pairs and dedups them directly.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 42))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(60)
		edges := make([]Edge, rng.IntN(8*n))
		for i := range edges {
			edges[i] = Edge{VID(rng.IntN(n)), VID(rng.IntN(n))}
		}
		g := FromEdges(n, edges)

		want := make(map[Edge]bool)
		for _, e := range edges {
			if e.U != e.V {
				want[e] = true
			}
		}
		got := g.Edges()
		if len(got) != len(want) {
			t.Fatalf("m = %d, want %d", len(got), len(want))
		}
		for _, e := range got {
			if !want[e] {
				t.Fatalf("unexpected edge %v", e)
			}
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].U != got[j].U {
				return got[i].U < got[j].U
			}
			return got[i].V < got[j].V
		}) {
			t.Fatalf("edges not sorted: %v", got)
		}
	}
}

// Property: the direct sub-CSR construction matches the reference
// re-build-through-a-Builder implementation it replaced.
func TestInducedSubgraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 15))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(50)
		g := randomGraph(rng, n, rng.IntN(6*n))
		keep := make([]bool, n)
		for v := range keep {
			keep[v] = rng.IntN(3) > 0
		}
		sub, oldID := g.InducedSubgraph(keep)
		checkInducedReference(t, g, keep, sub, oldID)
	}
}

// Property: every part of a one-pass partition equals the reference
// induced subgraph of that part's vertex mask, including empty parts and
// left-out vertices.
func TestInducedPartsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 16))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(50)
		g := randomGraph(rng, n, rng.IntN(6*n))
		nparts := 1 + rng.IntN(5)
		part := make([]int32, n)
		for v := range part {
			part[v] = int32(rng.IntN(nparts+1)) - 1
		}
		subs, oldIDs := InducedParts(g, part, nparts)
		if len(subs) != nparts || len(oldIDs) != nparts {
			t.Fatalf("%d subgraphs, %d maps, want %d", len(subs), len(oldIDs), nparts)
		}
		for p := range subs {
			keep := make([]bool, n)
			for v := range keep {
				keep[v] = part[v] == int32(p)
			}
			checkInducedReference(t, g, keep, subs[p], oldIDs[p])
		}
	}
}

// checkInducedReference compares an induced subgraph and its old-ID map
// against relabelling the kept vertices and re-feeding their edges through
// a Builder.
func checkInducedReference(t *testing.T, g *Graph, keep []bool, sub *Graph, oldID []VID) {
	t.Helper()
	newID := make(map[VID]VID)
	var wantOld []VID
	for v := range keep {
		if keep[v] {
			newID[VID(v)] = VID(len(wantOld))
			wantOld = append(wantOld, VID(v))
		}
	}
	rb := NewBuilder(len(wantOld))
	for _, u := range wantOld {
		for _, w := range g.Out(u) {
			if keep[w] {
				rb.AddEdge(newID[u], newID[w])
			}
		}
	}
	want := rb.Build()

	if !reflect.DeepEqual(append([]VID{}, oldID...), append([]VID{}, wantOld...)) {
		t.Fatalf("oldID = %v, want %v", oldID, wantOld)
	}
	if sub.NumVertices() != want.NumVertices() || sub.NumEdges() != want.NumEdges() {
		t.Fatalf("sub %v, want %v", sub, want)
	}
	if !reflect.DeepEqual(sub.Edges(), want.Edges()) {
		t.Fatalf("sub edges %v, want %v", sub.Edges(), want.Edges())
	}
	for v := 0; v < sub.NumVertices(); v++ {
		if !reflect.DeepEqual(sub.In(VID(v)), want.In(VID(v))) {
			t.Fatalf("In(%d) = %v, want %v", v, sub.In(VID(v)), want.In(VID(v)))
		}
	}
}

// TestFromSortedRowsMatchesBuild: filling a CSR straight from sorted rows
// must give the arrays a KeepSelfLoops Build of the same edges gives,
// slice for slice, and Materialize of a mapped copy must too.
func TestFromSortedRowsMatchesBuild(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewPCG(seed, 23))
		n := 1 + rng.IntN(60)
		b := NewBuilder(n)
		b.KeepSelfLoops = true
		for i := rng.IntN(4 * n); i > 0; i-- {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		want := b.Build()
		got := FromSortedRows(n, 0, func(dst []VID, v VID) []VID {
			return append(dst, want.Out(v)...)
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: FromSortedRows differs from Build", seed)
		}
		mg, err := OpenMapped(writeTempMapped(t, want))
		if err != nil {
			t.Fatal(err)
		}
		if mat := Materialize(mg); !reflect.DeepEqual(mat, want) {
			t.Fatalf("seed %d: Materialize of the mapped copy differs from Build", seed)
		}
		mg.Close()
	}
}
