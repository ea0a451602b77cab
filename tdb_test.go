package tdb

import (
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"tdb/internal/cycle"
)

func TestQuickstartFlow(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g := b.Build()

	res, err := Solve(context.Background(), g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cover) != 1 {
		t.Fatalf("cover = %v, want one vertex", res.Cover)
	}
	rep := Verify(g, 5, 3, res.Cover, true)
	if !rep.Valid || !rep.Minimal {
		t.Fatalf("verify failed: %+v", rep)
	}
}

func TestCoverWithAllAlgorithms(t *testing.T) {
	g := GenPowerLaw(300, 1800, 2.2, 0.3, 7)
	for _, algo := range []Algorithm{BUR, BURPlus, TDB, TDBPlus, TDBPlusPlus, DARCDV} {
		res, err := Solve(context.Background(), g, 4, WithAlgorithm(algo), WithOrder(OrderDegreeAsc))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		rep := Verify(g, 4, 3, res.Cover, false)
		if !rep.Valid {
			t.Fatalf("%v: invalid cover", algo)
		}
	}
}

func TestCoverAllCycles(t *testing.T) {
	// A 9-ring has only one (long) cycle.
	b := NewBuilder(9)
	for v := VID(0); v < 9; v++ {
		b.AddEdge(v, (v+1)%9)
	}
	g := b.Build()
	res, err := Solve(context.Background(), g, 0, WithUnconstrained())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cover) != 1 {
		t.Fatalf("cover = %v, want one vertex", res.Cover)
	}
}

func TestFindCycleAndHas(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}})
	if c := FindCycle(g, 5, 0); len(c) != 3 {
		t.Fatalf("FindCycle = %v", c)
	}
	if c := FindCycle(g, 5, 3); c != nil {
		t.Fatalf("vertex 3 is on no cycle, got %v", c)
	}
	if !HasHopConstrainedCycle(g, 5) {
		t.Fatal("graph has a triangle")
	}
	dag := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if HasHopConstrainedCycle(dag, 5) {
		t.Fatal("DAG has no cycle")
	}
}

// oracleGraph is a random DAG (n forward edges under a random vertex
// order) plus one planted ring of ringLen distinct vertices and extra
// random edges in either direction. Every cycle uses a backward edge of
// the ring or the extras, so a ring just shorter or longer than k makes
// hop-constrained cycles present in some graphs and absent in others.
// With tailRing set the ring is the last ringLen vertex IDs, the DAG spans
// only the others and there are no extras: the ring is then the only
// cycle, and it lies in the sweep's last (partial) 64-vertex group.
func oracleGraph(n, ringLen, extra int, tailRing bool, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, uint64(n*ringLen)))
	dagN := n
	ring := rng.Perm(n)[:ringLen]
	if tailRing {
		dagN = n - ringLen
		for i := range ring {
			ring[i] = dagN + i
		}
	}
	rank := rng.Perm(dagN)
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		u, v := rng.IntN(dagN), rng.IntN(dagN)
		if rank[u] > rank[v] {
			u, v = v, u
		}
		if u != v {
			b.AddEdge(VID(u), VID(v))
		}
	}
	for i, v := range ring {
		b.AddEdge(VID(v), VID(ring[(i+1)%ringLen]))
	}
	for i := 0; i < extra; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			b.AddEdge(VID(u), VID(v))
		}
	}
	return b.Build()
}

// tailCycleGraph has exactly one constrained cycle under hop bound k: a
// k-ring on the k highest-numbered vertices. Below it sit a (k+1)-ring on
// vertices 0..k, too long to count, and a random forward DAG that the long
// ring feeds and that feeds the short ring. Every query before the tail
// answers "no", so the tail is found on a fully peeled graph.
func tailCycleGraph(n, k int, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, uint64(n*k)))
	b := NewBuilder(n)
	for i := 0; i <= k; i++ {
		b.AddEdge(VID(i), VID((i+1)%(k+1)))
	}
	tail := n - k
	for i := 0; i < k; i++ {
		b.AddEdge(VID(tail+i), VID(tail+(i+1)%k))
	}
	for i := 0; i < 4*n; i++ {
		u, v := rng.IntN(tail), k+1+rng.IntN(n-k-1)
		if u < v {
			b.AddEdge(VID(u), VID(v))
		}
	}
	return b.Build()
}

// forwardHalf keeps the edges u -> v with u < v: an acyclic graph.
func forwardHalf(g *Graph) *Graph {
	var edges []Edge
	for _, e := range g.Edges() {
		if e.U < e.V {
			edges = append(edges, e)
		}
	}
	return FromEdges(g.NumVertices(), edges)
}

// checkHasCycleOracle asserts that the one-shot and engine
// HasHopConstrainedCycle, on memory and on mapped storage, agree with the
// exhaustive enumeration oracle, and returns the oracle's answer.
func checkHasCycleOracle(t *testing.T, g *Graph, k int) bool {
	t.Helper()
	want := cycle.NewEnumerator(g, k, cycle.DefaultMinLen, nil).HasAny()
	mg := openMappedCopy(t, g)
	for _, st := range []struct {
		name string
		g    Storage
	}{{"memory", g}, {"mapped", mg}} {
		if got := HasHopConstrainedCycle(st.g, k); got != want {
			t.Fatalf("%s: HasHopConstrainedCycle = %v, enumerator %v", st.name, got, want)
		}
		e := NewStorageEngine(st.g)
		for round := 0; round < 2; round++ { // round 2 reuses pooled scratch
			if got := e.HasHopConstrainedCycle(k); got != want {
				t.Fatalf("%s round %d: Engine.HasHopConstrainedCycle = %v, enumerator %v",
					st.name, round, got, want)
			}
		}
	}
	return want
}

// TestHasHopConstrainedCycleMatchesEnumerator: the one-shot and engine
// HasHopConstrainedCycle (block-detector queries in ID order, each "no"
// peeling its vertex) must agree with the exhaustive enumeration oracle,
// on memory and mapped storage, on random graphs, on their acyclic halves,
// and on graphs whose only constrained cycle runs through the
// highest-numbered vertices.
func TestHasHopConstrainedCycleMatchesEnumerator(t *testing.T) {
	var yes, no int
	count := func(found bool) {
		if found {
			yes++
		} else {
			no++
		}
	}
	for _, n := range []int{65, 200, 700} {
		for _, k := range []int{3, 5, 8} {
			for seed := uint64(1); seed <= 6; seed++ {
				ringLen := k - 1 + int(seed%3) // k-1, k or k+1
				extra := 0
				if seed == 4 {
					extra = n / 16
				}
				g := oracleGraph(n, ringLen, extra, seed >= 5, seed)
				t.Run(fmt.Sprintf("n=%d/k=%d/seed=%d", n, k, seed), func(t *testing.T) {
					count(checkHasCycleOracle(t, g, k))
				})
				t.Run(fmt.Sprintf("acyclic/n=%d/k=%d/seed=%d", n, k, seed), func(t *testing.T) {
					if checkHasCycleOracle(t, forwardHalf(g), k) {
						t.Fatal("the forward half of a graph has a cycle")
					}
				})
			}
			t.Run(fmt.Sprintf("tail-cycle/n=%d/k=%d", n, k), func(t *testing.T) {
				if !checkHasCycleOracle(t, tailCycleGraph(n, k, uint64(n+k)), k) {
					t.Fatal("tail cycle not found by the enumerator")
				}
			})
		}
	}
	if yes == 0 || no == 0 {
		t.Fatalf("corpus is one-sided: %d graphs with a cycle, %d without", yes, no)
	}
}

func TestEnumerateCycles(t *testing.T) {
	g := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	n := 0
	EnumerateCycles(g, 5, func(c []VID) bool {
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("enumerated %d cycles, want 1", n)
	}
}

func TestGraphIORoundTrip(t *testing.T) {
	g := GenErdosRenyi(50, 200, 3)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip lost edges")
	}
}

func TestDatasetsFacade(t *testing.T) {
	if len(Datasets()) != 16 {
		t.Fatal("want 16 datasets")
	}
	d, ok := DatasetByName("GNU")
	if !ok {
		t.Fatal("GNU missing")
	}
	g := d.Generate(0.01)
	if g.NumVertices() == 0 {
		t.Fatal("empty dataset graph")
	}
}

func TestGenFacades(t *testing.T) {
	if g := GenSmallWorld(50, 2, 0.3, 1); g.NumVertices() != 50 {
		t.Fatal("small world facade broken")
	}
	p := GenPlantedCycles(60, 3, 3, 4, 50, 2)
	if len(p.Cycles) != 3 {
		t.Fatal("planted facade broken")
	}
}
