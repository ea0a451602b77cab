package core

import (
	"math/rand/v2"
	"testing"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
	"tdb/internal/gen"
	"tdb/internal/verify"
)

func g(n int, pairs ...VID) *digraph.Graph {
	b := digraph.NewBuilder(n)
	for i := 0; i+1 < len(pairs); i += 2 {
		b.AddEdge(pairs[i], pairs[i+1])
	}
	return b.Build()
}

func mustCompute(t *testing.T, gr *digraph.Graph, a Algorithm, opts Options) *Result {
	t.Helper()
	r, err := Compute(gr, a, opts)
	if err != nil {
		t.Fatalf("%v: %v", a, err)
	}
	if r.Stats.TimedOut {
		t.Fatalf("%v: unexpected timeout", a)
	}
	return r
}

// checkCover asserts validity (always) and minimality (for the algorithms
// that promise it).
func checkCover(t *testing.T, gr *digraph.Graph, a Algorithm, opts Options, r *Result) {
	t.Helper()
	k, minLen := opts.K, opts.MinLen
	if minLen == 0 {
		minLen = 3
	}
	if ok, witness := verify.IsValid(gr, k, minLen, r.Cover); !ok {
		t.Fatalf("%v: invalid cover %v, surviving cycle %v\ngraph=%v",
			a, r.Cover, witness, gr.Edges())
	}
	minimalAlgos := map[Algorithm]bool{BURPlus: true, TDB: true, TDBPlus: true, TDBPlusPlus: true}
	if minimalAlgos[a] {
		if ok, redundant := verify.IsMinimal(gr, k, minLen, r.Cover); !ok {
			t.Fatalf("%v: non-minimal cover %v, redundant %v\ngraph=%v",
				a, r.Cover, redundant, gr.Edges())
		}
	}
}

func allAlgorithms() []Algorithm {
	return []Algorithm{BUR, BURPlus, TDB, TDBPlus, TDBPlusPlus, DARCDV}
}

func TestTriangleAllAlgorithms(t *testing.T) {
	gr := g(3, 0, 1, 1, 2, 2, 0)
	for _, a := range allAlgorithms() {
		opts := Options{K: 5}
		r := mustCompute(t, gr, a, opts)
		if len(r.Cover) != 1 {
			t.Fatalf("%v: cover %v, want exactly 1 vertex for a lone triangle", a, r.Cover)
		}
		checkCover(t, gr, a, opts, r)
	}
}

func TestAcyclicGraphEmptyCover(t *testing.T) {
	gr := g(5, 0, 1, 1, 2, 2, 3, 3, 4, 0, 4)
	for _, a := range allAlgorithms() {
		r := mustCompute(t, gr, a, Options{K: 5})
		if len(r.Cover) != 0 {
			t.Fatalf("%v: cover %v on a DAG, want empty", a, r.Cover)
		}
	}
}

func TestTwoCyclesOnlyGraph(t *testing.T) {
	// Only 2-cycles: default problem sees no cycles; MinLen=2 must cover.
	gr := g(4, 0, 1, 1, 0, 2, 3, 3, 2)
	for _, a := range allAlgorithms() {
		r := mustCompute(t, gr, a, Options{K: 5})
		if len(r.Cover) != 0 {
			t.Fatalf("%v: cover %v, want empty with MinLen=3", a, r.Cover)
		}
		r2 := mustCompute(t, gr, a, Options{K: 5, MinLen: 2})
		if len(r2.Cover) != 2 {
			t.Fatalf("%v: cover %v with MinLen=2, want 2 (one per 2-cycle)", a, r2.Cover)
		}
	}
}

// The paper's Figure 1 scenario: an e-commerce network whose three simple
// cycles (hop <= 5) all pass through account a, so {a} is a minimum cover.
func TestPaperFigure1(t *testing.T) {
	// a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7
	// cycles: a->b->c->a (3), a->c->d->e->a (4), a->f->g->h->e->a (5);
	// extra acyclic edges: h->d, b->f.
	gr := g(8,
		0, 1, 1, 2, 2, 0,
		2, 3, 3, 4, 4, 0,
		0, 2, // a->c, part of the 4-cycle
		0, 5, 5, 6, 6, 7, 7, 4,
		7, 3, 1, 5,
	)
	for _, a := range allAlgorithms() {
		opts := Options{K: 5}
		r := mustCompute(t, gr, a, opts)
		checkCover(t, gr, a, opts, r)
	}
	// BUR's hit-count heuristic discovers all three cycles from a, so BUR+
	// lands on the minimum cover {a}.
	r := mustCompute(t, gr, BURPlus, Options{K: 5})
	if len(r.Cover) != 1 || r.Cover[0] != 0 {
		t.Fatalf("BUR+: cover %v, want {a}=[0]", r.Cover)
	}
	// The top-down variants are minimal but need not hit the minimum (a is
	// processed first, when the working graph is empty, so it is excluded).
	for _, a := range []Algorithm{TDB, TDBPlus, TDBPlusPlus} {
		r := mustCompute(t, gr, a, Options{K: 5})
		if len(r.Cover) > 2 {
			t.Fatalf("%v: minimal cover %v unexpectedly large", a, r.Cover)
		}
	}
	// And the optimum is indeed 1.
	if opt := verify.BruteForceOptimal(gr, 5, 3); len(opt) != 1 {
		t.Fatalf("brute force optimum %v, want size 1", opt)
	}
}

func TestHopConstraintRespected(t *testing.T) {
	// A 6-cycle: with k=5 it needs no cover, with k=6 it needs one vertex.
	gr := g(6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0)
	for _, a := range allAlgorithms() {
		r5 := mustCompute(t, gr, a, Options{K: 5})
		if len(r5.Cover) != 0 {
			t.Fatalf("%v: k=5 cover %v, want empty", a, r5.Cover)
		}
		r6 := mustCompute(t, gr, a, Options{K: 6})
		if len(r6.Cover) != 1 {
			t.Fatalf("%v: k=6 cover %v, want 1 vertex", a, r6.Cover)
		}
	}
}

// Every algorithm on every random graph: valid covers; minimal where
// promised; identical covers across TDB variants (the paper reports the
// three top-down variants return identical result sets).
func TestRandomGraphsAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 41))
	for iter := 0; iter < 60; iter++ {
		n := 3 + rng.IntN(16)
		m := rng.IntN(3*n + 1)
		b := digraph.NewBuilder(n)
		for i := 0; i < m; i++ {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		gr := b.Build()
		for _, minLen := range []int{2, 3} {
			for _, k := range []int{minLen, 4, 6} {
				if k < minLen {
					continue
				}
				opts := Options{K: k, MinLen: minLen}
				var tdbCovers [][]VID
				for _, a := range allAlgorithms() {
					r := mustCompute(t, gr, a, opts)
					checkCover(t, gr, a, opts, r)
					switch a {
					case TDB, TDBPlus, TDBPlusPlus:
						tdbCovers = append(tdbCovers, r.Cover)
					}
				}
				for i := 1; i < len(tdbCovers); i++ {
					if len(tdbCovers[i]) != len(tdbCovers[0]) {
						t.Fatalf("iter=%d k=%d minLen=%d: TDB variants disagree: %v vs %v\ngraph=%v",
							iter, k, minLen, tdbCovers[0], tdbCovers[i], gr.Edges())
					}
					for j := range tdbCovers[i] {
						if tdbCovers[i][j] != tdbCovers[0][j] {
							t.Fatalf("iter=%d k=%d minLen=%d: TDB variants disagree: %v vs %v",
								iter, k, minLen, tdbCovers[0], tdbCovers[i])
						}
					}
				}
			}
		}
	}
}

// BUR+ prunes BUR's cover, never grows it; both remain valid.
func TestMinimalPassShrinks(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 61))
	for iter := 0; iter < 30; iter++ {
		n := 5 + rng.IntN(20)
		b := digraph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		gr := b.Build()
		opts := Options{K: 5}
		bur := mustCompute(t, gr, BUR, opts)
		burP := mustCompute(t, gr, BURPlus, opts)
		if len(burP.Cover) > len(bur.Cover) {
			t.Fatalf("iter %d: BUR+ cover %d > BUR cover %d", iter, len(burP.Cover), len(bur.Cover))
		}
		if burP.Stats.PruneRemoved != int64(len(bur.Cover)-len(burP.Cover)) {
			t.Fatalf("iter %d: PruneRemoved=%d, want %d",
				iter, burP.Stats.PruneRemoved, len(bur.Cover)-len(burP.Cover))
		}
	}
}

// Against the brute-force optimum on tiny graphs: minimal covers are within
// a small factor, and never smaller than the optimum (sanity).
func TestAgainstBruteForceOptimum(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 81))
	for iter := 0; iter < 25; iter++ {
		n := 4 + rng.IntN(6)
		b := digraph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		gr := b.Build()
		opt := verify.BruteForceOptimal(gr, 4, 3)
		for _, a := range []Algorithm{BURPlus, TDBPlusPlus} {
			r := mustCompute(t, gr, a, Options{K: 4})
			if len(r.Cover) < len(opt) {
				t.Fatalf("iter %d %v: cover %v smaller than optimum %v (verifier broken)",
					iter, a, r.Cover, opt)
			}
		}
	}
}

// The NP-hardness gadget (paper Fig. 2 / Theorem 2): the optimal k=3 cover
// of the gadget has the same size as the minimum vertex cover of the
// original undirected graph.
func TestGadgetMatchesVertexCover(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	for iter := 0; iter < 15; iter++ {
		n := 3 + rng.IntN(4)
		var edges []gen.UndirectedEdge
		seen := map[[2]VID]bool{}
		for i := 0; i < n; i++ {
			u, v := VID(rng.IntN(n)), VID(rng.IntN(n))
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]VID{u, v}] {
				continue
			}
			seen[[2]VID{u, v}] = true
			edges = append(edges, gen.UndirectedEdge{U: u, V: v})
		}
		if len(edges) == 0 {
			continue
		}
		gad := gen.VertexCoverGadget(n, edges)
		opt := verify.BruteForceOptimal(gad.Graph, 3, 3)
		want := bruteForceVC(n, edges)
		if len(opt) != want {
			t.Fatalf("iter %d: gadget optimum %d != vertex cover %d (edges %v)",
				iter, len(opt), want, edges)
		}
		// And our minimal heuristics produce valid covers of the gadget.
		for _, a := range []Algorithm{BURPlus, TDBPlusPlus} {
			r := mustCompute(t, gad.Graph, a, Options{K: 3})
			checkCover(t, gad.Graph, a, Options{K: 3}, r)
		}
	}
}

// bruteForceVC returns the minimum vertex cover size of an undirected graph.
func bruteForceVC(n int, edges []gen.UndirectedEdge) int {
	best := n
	for mask := uint32(0); mask < 1<<n; mask++ {
		size := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				size++
			}
		}
		if size >= best {
			continue
		}
		ok := true
		for _, e := range edges {
			if mask&(1<<e.U) == 0 && mask&(1<<e.V) == 0 {
				ok = false
				break
			}
		}
		if ok {
			best = size
		}
	}
	return best
}

func TestVertexOrders(t *testing.T) {
	gr := gen.PowerLaw(300, 1500, 2.2, 0.3, 5)
	for _, ord := range []Order{OrderNatural, OrderDegreeAsc, OrderDegreeDesc, OrderRandom} {
		opts := Options{K: 4, Order: ord, Seed: 9}
		r := mustCompute(t, gr, TDBPlusPlus, opts)
		checkCover(t, gr, TDBPlusPlus, opts, r)
	}
	// Random order is seed-deterministic.
	a := mustCompute(t, gr, TDBPlusPlus, Options{K: 4, Order: OrderRandom, Seed: 7})
	b := mustCompute(t, gr, TDBPlusPlus, Options{K: 4, Order: OrderRandom, Seed: 7})
	if len(a.Cover) != len(b.Cover) {
		t.Fatal("random order not deterministic under fixed seed")
	}
}

func TestSCCPrefilter(t *testing.T) {
	// A cycle plus a long acyclic tail: the prefilter must skip the tail.
	b := digraph.NewBuilder(50)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	for v := 3; v < 49; v++ {
		b.AddEdge(VID(v), VID(v+1))
	}
	gr := b.Build()
	plain := mustCompute(t, gr, TDBPlusPlus, Options{K: 5})
	filt := mustCompute(t, gr, TDBPlusPlus, Options{K: 5, SCCPrefilter: true})
	if len(plain.Cover) != len(filt.Cover) {
		t.Fatalf("prefilter changed cover size: %d vs %d", len(plain.Cover), len(filt.Cover))
	}
	if filt.Stats.SCCSkipped < 40 {
		t.Fatalf("SCCSkipped = %d, want >= 40", filt.Stats.SCCSkipped)
	}
	if filt.Stats.Checked >= plain.Stats.Checked {
		t.Fatal("prefilter did not reduce checked candidates")
	}
	// Covers must agree with and without the prefilter on random graphs.
	rng := rand.New(rand.NewPCG(11, 13))
	for iter := 0; iter < 20; iter++ {
		n := 5 + rng.IntN(15)
		bb := digraph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			bb.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		grr := bb.Build()
		for _, a := range []Algorithm{BURPlus, TDBPlusPlus} {
			r1 := mustCompute(t, grr, a, Options{K: 4})
			r2 := mustCompute(t, grr, a, Options{K: 4, SCCPrefilter: true})
			if len(r1.Cover) != len(r2.Cover) {
				t.Fatalf("iter %d %v: prefilter changed cover: %v vs %v", iter, a, r1.Cover, r2.Cover)
			}
		}
	}
}

func TestUnconstrainedVariant(t *testing.T) {
	// 12-cycle: invisible at k=5, covered by the unconstrained variant.
	b := digraph.NewBuilder(12)
	for v := 0; v < 12; v++ {
		b.AddEdge(VID(v), VID((v+1)%12))
	}
	gr := b.Build()
	r5 := mustCompute(t, gr, TDBPlusPlus, Options{K: 5})
	if len(r5.Cover) != 0 {
		t.Fatalf("k=5 cover %v, want empty", r5.Cover)
	}
	r, err := Unconstrained(gr, TDBPlusPlus, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cover) != 1 {
		t.Fatalf("unconstrained cover %v, want 1 vertex", r.Cover)
	}
	if ok, _ := verify.IsValid(gr, cycle.Unconstrained(gr), 3, r.Cover); !ok {
		t.Fatal("unconstrained cover invalid")
	}
}

func TestPlantedCyclesLowerBound(t *testing.T) {
	p := gen.PlantedCycles(400, 12, 3, 5, 600, 33)
	for _, a := range []Algorithm{BURPlus, TDBPlusPlus} {
		opts := Options{K: 5}
		r := mustCompute(t, p.Graph, a, opts)
		checkCover(t, p.Graph, a, opts, r)
		if len(r.Cover) < 12 {
			t.Fatalf("%v: cover %d < 12 vertex-disjoint planted cycles", a, len(r.Cover))
		}
	}
}

func TestCancellation(t *testing.T) {
	gr := gen.PowerLaw(2000, 12000, 2.2, 0.4, 3)
	for _, a := range allAlgorithms() {
		r, err := Compute(gr, a, Options{K: 5, Context: cancelAfter(10)})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if !r.Stats.TimedOut {
			t.Fatalf("%v: expected TimedOut", a)
		}
	}
}

func TestDARCEdgesDirect(t *testing.T) {
	// Two triangles sharing vertex 0.
	gr := g(5, 0, 1, 1, 2, 2, 0, 0, 3, 3, 4, 4, 0)
	edges, complete := DARCEdges(gr, 5, 3, nil)
	if !complete {
		t.Fatal("DARC timed out on a tiny graph")
	}
	if len(edges) == 0 {
		t.Fatal("DARC selected no edges")
	}
	// Removing the selected edges must leave no constrained cycle: rebuild.
	drop := map[digraph.Edge]bool{}
	for _, e := range edges {
		drop[e] = true
	}
	b := digraph.NewBuilder(gr.NumVertices())
	for _, e := range gr.Edges() {
		if !drop[e] {
			b.AddEdge(e.U, e.V)
		}
	}
	if cycle.NewEnumerator(b.Build(), 5, 3, nil).HasAny() {
		t.Fatal("DARC edge set does not break all constrained cycles")
	}
}

// Property: DARC's edge transversal breaks all constrained cycles on random
// graphs, for both minLen settings.
func TestDARCEdgesRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	for iter := 0; iter < 40; iter++ {
		n := 3 + rng.IntN(10)
		b := digraph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		gr := b.Build()
		for _, minLen := range []int{2, 3} {
			edges, complete := DARCEdges(gr, 5, minLen, nil)
			if !complete {
				t.Fatalf("iter %d: unexpected timeout", iter)
			}
			drop := map[digraph.Edge]bool{}
			for _, e := range edges {
				drop[e] = true
			}
			bb := digraph.NewBuilder(gr.NumVertices())
			for _, e := range gr.Edges() {
				if !drop[e] {
					bb.AddEdge(e.U, e.V)
				}
			}
			if cycle.NewEnumerator(bb.Build(), 5, minLen, nil).HasAny() {
				t.Fatalf("iter %d minLen=%d: surviving constrained cycle", iter, minLen)
			}
		}
	}
}

func TestDARCDVStarGraph(t *testing.T) {
	// A high-degree in/out star is acyclic: DARC-DV must select nothing,
	// and the run must stay cheap despite the hub's din*dout = 360000
	// two-paths (the line-graph formulation would materialize all of them).
	b := digraph.NewBuilder(1201)
	for i := 1; i <= 600; i++ {
		b.AddEdge(VID(i), 0)
		b.AddEdge(0, VID(600+i))
	}
	gr := b.Build()
	r, err := Compute(gr, DARCDV, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cover) != 0 {
		t.Fatalf("star is acyclic; cover %v", r.Cover)
	}
}

// DARC-DV covers only vertex-simple cycles: two 2-cycles sharing a vertex
// form a phantom line-graph 4-cycle that must NOT force selections when
// minLen=3.
func TestDARCDVNoPhantomWalks(t *testing.T) {
	gr := g(3, 0, 1, 1, 0, 0, 2, 2, 0)
	r := mustCompute(t, gr, DARCDV, Options{K: 5})
	if len(r.Cover) != 0 {
		t.Fatalf("cover %v, want empty: the only closed walks repeat vertex 0", r.Cover)
	}
}

func TestOptionsValidation(t *testing.T) {
	gr := g(3, 0, 1)
	if _, err := Compute(gr, TDBPlusPlus, Options{K: 2}); err == nil {
		t.Fatal("K < MinLen must error")
	}
	if _, err := Compute(gr, TDBPlusPlus, Options{K: 5, MinLen: 1}); err == nil {
		t.Fatal("MinLen < 2 must error")
	}
	if _, err := Compute(gr, Algorithm(99), Options{K: 5}); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range allAlgorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("round trip failed for %v: %v %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm String should not be empty")
	}
}

func TestStatsPopulated(t *testing.T) {
	gr := gen.PowerLaw(500, 3000, 2.2, 0.3, 21)
	r := mustCompute(t, gr, TDBPlusPlus, Options{K: 5})
	st := r.Stats
	if st.Algorithm != "TDB++" || st.K != 5 || st.MinLen != 3 {
		t.Fatalf("stats header wrong: %+v", st)
	}
	if st.N != 500 || st.M != gr.NumEdges() {
		t.Fatalf("graph sizes wrong: %+v", st)
	}
	if st.CoverSize != len(r.Cover) {
		t.Fatalf("CoverSize %d != len(Cover) %d", st.CoverSize, len(r.Cover))
	}
	if st.Checked == 0 || st.Duration <= 0 {
		t.Fatalf("work counters empty: %+v", st)
	}
	if st.FilterPruned == 0 {
		t.Fatalf("BFS filter never pruned on a sparse graph: %+v", st)
	}
	if st.Detector.Queries == 0 {
		t.Fatalf("detector stats missing: %+v", st)
	}
}

func TestCoverSet(t *testing.T) {
	r := &Result{Cover: []VID{1, 3}}
	mask := r.CoverSet(5)
	want := []bool{false, true, false, true, false}
	for i := range want {
		if mask[i] != want[i] {
			t.Fatalf("CoverSet = %v", mask)
		}
	}
}
