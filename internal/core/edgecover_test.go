package core

import (
	"math/rand/v2"
	"testing"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
)

// removeEdges rebuilds the graph without the given edges.
func removeEdges(gr *digraph.Graph, drop []digraph.Edge) *digraph.Graph {
	dropSet := map[digraph.Edge]bool{}
	for _, e := range drop {
		dropSet[e] = true
	}
	b := digraph.NewBuilder(gr.NumVertices())
	for _, e := range gr.Edges() {
		if !dropSet[e] {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Build()
}

func TestTopDownEdgesTriangle(t *testing.T) {
	gr := g(3, 0, 1, 1, 2, 2, 0)
	r, err := TopDownEdges(gr, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Edges) != 1 {
		t.Fatalf("edge cover %v, want exactly one edge", r.Edges)
	}
	if cycle.NewEnumerator(removeEdges(gr, r.Edges), 5, 3, nil).HasAny() {
		t.Fatal("cycle survives edge removal")
	}
}

func TestTopDownEdgesDAG(t *testing.T) {
	gr := g(4, 0, 1, 1, 2, 2, 3, 0, 3)
	r, err := TopDownEdges(gr, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Edges) != 0 {
		t.Fatalf("edge cover %v on a DAG", r.Edges)
	}
}

// Validity and minimality on random graphs, for both minLen settings.
func TestTopDownEdgesRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 33))
	for iter := 0; iter < 50; iter++ {
		n := 3 + rng.IntN(12)
		b := digraph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		gr := b.Build()
		for _, minLen := range []int{2, 3} {
			k := minLen + rng.IntN(4)
			r, err := TopDownEdges(gr, Options{K: k, MinLen: minLen})
			if err != nil {
				t.Fatal(err)
			}
			reduced := removeEdges(gr, r.Edges)
			if cycle.NewEnumerator(reduced, k, minLen, nil).HasAny() {
				t.Fatalf("iter %d k=%d minLen=%d: constrained cycle survives\ngraph=%v cover=%v",
					iter, k, minLen, gr.Edges(), r.Edges)
			}
			// Minimality: restoring any single cover edge re-creates a
			// constrained cycle through it.
			for _, e := range r.Edges {
				restored := removeEdges(gr, without(r.Edges, e))
				_ = restored
				rb := digraph.NewBuilder(gr.NumVertices())
				for _, ee := range reduced.Edges() {
					rb.AddEdge(ee.U, ee.V)
				}
				rb.AddEdge(e.U, e.V)
				if !cycle.NewEnumerator(rb.Build(), k, minLen, nil).HasAny() {
					t.Fatalf("iter %d: edge %v is redundant in cover %v\ngraph=%v",
						iter, e, r.Edges, gr.Edges())
				}
			}
		}
	}
}

func without(edges []digraph.Edge, e digraph.Edge) []digraph.Edge {
	out := make([]digraph.Edge, 0, len(edges))
	for _, x := range edges {
		if x != e {
			out = append(out, x)
		}
	}
	return out
}

// The edge transversal can never need more edges than DARC selects after
// pruning... both are minimal, so just compare against DARC for validity
// and record that both approaches solve the same instance.
func TestTopDownEdgesVsDARC(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 99))
	for iter := 0; iter < 20; iter++ {
		n := 4 + rng.IntN(8)
		b := digraph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		gr := b.Build()
		tdbE, err := TopDownEdges(gr, Options{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		darcE, complete := DARCEdges(gr, 5, 3, nil)
		if !complete {
			t.Fatal("DARC timeout on tiny graph")
		}
		// Both must break all constrained cycles.
		for name, edges := range map[string][]digraph.Edge{"TDB-E": tdbE.Edges, "DARC": darcE} {
			if cycle.NewEnumerator(removeEdges(gr, edges), 5, 3, nil).HasAny() {
				t.Fatalf("iter %d: %s edge set leaves a cycle", iter, name)
			}
		}
	}
}

func TestTopDownEdgesCancellation(t *testing.T) {
	gr := g(3, 0, 1, 1, 2, 2, 0)
	r, err := TopDownEdges(gr, Options{K: 5, Context: cancelAfter(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats.TimedOut {
		t.Fatal("expected TimedOut")
	}
}

func TestTopDownEdgesValidation(t *testing.T) {
	gr := g(3, 0, 1)
	if _, err := TopDownEdges(gr, Options{K: 1}); err == nil {
		t.Fatal("K < MinLen must error")
	}
}

func TestParallelMatchesSequentialValidity(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 12))
	for iter := 0; iter < 30; iter++ {
		n := 6 + rng.IntN(30)
		b := digraph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		gr := b.Build()
		for _, workers := range []int{1, 4} {
			r, err := solveParallel(gr, TDBPlusPlus, Options{K: 5}, workers)
			if err != nil {
				t.Fatal(err)
			}
			checkCover(t, gr, TDBPlusPlus, Options{K: 5}, r)
		}
	}
}

func TestParallelManyComponents(t *testing.T) {
	// 100 disjoint triangles: cover must pick one vertex per triangle.
	b := digraph.NewBuilder(300)
	for i := 0; i < 100; i++ {
		x, y, z := VID(3*i), VID(3*i+1), VID(3*i+2)
		b.AddEdge(x, y)
		b.AddEdge(y, z)
		b.AddEdge(z, x)
	}
	gr := b.Build()
	r, err := solveParallel(gr, TDBPlusPlus, Options{K: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cover) != 100 {
		t.Fatalf("cover = %d, want 100", len(r.Cover))
	}
	checkCover(t, gr, TDBPlusPlus, Options{K: 5}, r)
}

func TestParallelUnconstrainedClamp(t *testing.T) {
	// K = n (unconstrained) must be clamped per component, not break.
	b := digraph.NewBuilder(20)
	for i := 0; i < 4; i++ {
		base := VID(5 * i)
		for j := VID(0); j < 5; j++ {
			b.AddEdge(base+j, base+(j+1)%5)
		}
	}
	gr := b.Build()
	r, err := solveParallel(gr, TDBPlusPlus, Options{K: 20}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cover) != 4 {
		t.Fatalf("cover = %v, want one vertex per 5-ring", r.Cover)
	}
}

func TestParallelSkipsTinyComponents(t *testing.T) {
	// 2-vertex SCCs hold only 2-cycles: invisible at MinLen=3, covered at 2.
	gr := g(4, 0, 1, 1, 0, 2, 3, 3, 2)
	r, err := solveParallel(gr, TDBPlusPlus, Options{K: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cover) != 0 {
		t.Fatalf("cover = %v, want empty at MinLen=3", r.Cover)
	}
	r2, err := solveParallel(gr, TDBPlusPlus, Options{K: 5, MinLen: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Cover) != 2 {
		t.Fatalf("cover = %v, want one per 2-cycle", r2.Cover)
	}
}

func TestParallelValidation(t *testing.T) {
	gr := g(3, 0, 1)
	if _, err := solveParallel(gr, TDBPlusPlus, Options{K: 1}, 2); err == nil {
		t.Fatal("K < MinLen must error")
	}
}
