package core

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"tdb/internal/digraph"
	"tdb/internal/gen"
	"tdb/internal/scc"
	"tdb/internal/verify"
)

// parallelOracle is the per-solve partitioned loop the cached component
// subgraphs replaced, kept as the reference: for every non-trivial SCC it
// carves the component with digraph.Induced over a whole-graph mask, remaps
// the order and weights, clamps K, runs the one-shot Compute and translates
// the cover back. Components are independent, so running them one after
// another gives the cover a worker pool must produce.
func parallelOracle(t *testing.T, g digraph.Adjacency, algo Algorithm, opts Options) []VID {
	t.Helper()
	opts = opts.withDefaults()
	comps := scc.Compute(g)
	members := make(map[int32][]VID)
	for v := 0; v < g.NumVertices(); v++ {
		if c := comps.Comp[v]; comps.Size[c] >= 2 {
			members[c] = append(members[c], VID(v))
		}
	}
	var orderPos []int32
	if opts.CandidateOrder != nil {
		orderPos = make([]int32, g.NumVertices())
		for i, v := range opts.CandidateOrder {
			orderPos[v] = int32(i)
		}
	}
	var cover []VID
	for _, verts := range members {
		keep := make([]bool, g.NumVertices())
		for _, v := range verts {
			keep[v] = true
		}
		sub, oldID := digraph.Induced(g, keep)
		if sub.NumVertices() < opts.MinLen {
			continue
		}
		subOpts := opts
		subOpts.SCCPrefilter = false
		if orderPos != nil {
			so := make([]VID, len(oldID))
			for i := range so {
				so[i] = VID(i)
			}
			sort.Slice(so, func(a, b int) bool {
				return orderPos[oldID[so[a]]] < orderPos[oldID[so[b]]]
			})
			subOpts.CandidateOrder = so
		}
		if opts.Weights != nil {
			sw := make([]float64, sub.NumVertices())
			for i, old := range oldID {
				sw[i] = opts.Weights[old]
			}
			subOpts.Weights = sw
		}
		subOpts.K = min(subOpts.K, sub.NumVertices())
		res, err := Compute(sub, algo, subOpts)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		for _, v := range res.Cover {
			cover = append(cover, oldID[v])
		}
	}
	slices.Sort(cover)
	return cover
}

// disjointUnion places the graphs side by side, renumbering each after the
// ones before it.
func disjointUnion(gs ...*digraph.Graph) *digraph.Graph {
	n := 0
	var edges []digraph.Edge
	for _, g := range gs {
		for _, e := range g.Edges() {
			edges = append(edges, digraph.Edge{U: e.U + VID(n), V: e.V + VID(n)})
		}
		n += g.NumVertices()
	}
	return digraph.FromEdges(n, edges)
}

// multiSCCGraph builds a random graph whose condensation splits into many
// non-trivial components of mixed sizes, including 2-vertex and 3-vertex
// ones, with a random numbering so components interleave in ID space.
func multiSCCGraph(t *testing.T, seed uint64) *digraph.Graph {
	t.Helper()
	base := disjointUnion(
		gen.Communities(8, 12, 0.3, 0.004, seed),
		gen.Communities(6, 2, 1, 0, seed+1), // 2-cycles
		gen.Communities(6, 3, 0.6, 0, seed+2),
	)
	perm := rand.New(rand.NewPCG(seed, 5)).Perm(base.NumVertices())
	var edges []digraph.Edge
	for _, e := range base.Edges() {
		edges = append(edges, digraph.Edge{U: VID(perm[e.U]), V: VID(perm[e.V])})
	}
	g := digraph.FromEdges(base.NumVertices(), edges)
	sizes := map[int32]bool{}
	for _, s := range scc.Compute(g).Size {
		sizes[s] = true
	}
	if !sizes[2] || !sizes[3] || countNontrivial(scc.Compute(g)) < 4 {
		t.Fatalf("seed %d: fixture lacks 2- and 3-vertex SCCs among several", seed)
	}
	return g
}

// TestSCCParallelMatchesOracle: the scc-parallel solve over cached
// component subgraphs returns bit-for-bit the cover of the per-solve
// Induced loop, for every order option, k, MinLen, worker count and
// storage backend, on the engine and the one-shot path, and every cover is
// valid and minimal.
func TestSCCParallelMatchesOracle(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		g := multiSCCGraph(t, seed)
		n := g.NumVertices()
		rng := rand.New(rand.NewPCG(seed, 9))
		weights := make([]float64, n)
		for v := range weights {
			weights[v] = 1 + rng.Float64()*9
		}
		explicit := make([]VID, n)
		for i, v := range rng.Perm(n) {
			explicit[i] = VID(v)
		}
		orders := []struct {
			name string
			opts Options
		}{
			{"natural", Options{Order: OrderNatural}},
			{"degree-asc", Options{Order: OrderDegreeAsc}},
			{"degree-desc", Options{Order: OrderDegreeDesc}},
			{"random", Options{Order: OrderRandom, Seed: seed}},
			{"weighted", Options{Order: OrderWeighted, Weights: weights}},
			{"explicit", Options{CandidateOrder: explicit}},
		}

		path := filepath.Join(t.TempDir(), "g.tdbcsr")
		if err := digraph.WriteMapped(path, g); err != nil {
			t.Fatal(err)
		}
		mg, err := digraph.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mg.Close()
		backends := []digraph.Adjacency{g, mg}
		engines := []*Engine{NewEngine(g), NewEngine(mg)}

		for _, o := range orders {
			for _, k := range []int{3, 5, 8} {
				for _, minLen := range []int{2, 3} {
					opts := o.opts
					opts.K, opts.MinLen = k, minLen
					want := parallelOracle(t, g, TDBPlusPlus, opts)
					if rep := verify.Check(g, k, minLen, want, true); !rep.Valid || !rep.Minimal {
						t.Fatalf("seed %d %s k=%d minLen=%d: oracle cover valid=%v minimal=%v",
							seed, o.name, k, minLen, rep.Valid, rep.Minimal)
					}
					for b, backend := range backends {
						for _, workers := range []int{1, 2, 4} {
							name := fmt.Sprintf("seed %d %s k=%d minLen=%d %s workers=%d",
								seed, o.name, k, minLen, digraph.StorageName(backend), workers)
							r, err := engines[b].Solve(nil, SolveSpec{Algorithm: TDBPlusPlus, Opts: opts,
								Workers: workers, Strategy: StrategyParallelSCC})
							if err != nil {
								t.Fatalf("%s engine: %v", name, err)
							}
							if r.Stats.Strategy != "scc-parallel" {
								t.Fatalf("%s: ran %q", name, r.Stats.Strategy)
							}
							if !slices.Equal(r.Cover, want) {
								t.Fatalf("%s engine: cover %v, oracle %v", name, r.Cover, want)
							}
							one, err := ComputeParallel(backend, TDBPlusPlus, opts, workers)
							if err != nil {
								t.Fatalf("%s one-shot: %v", name, err)
							}
							if !slices.Equal(one.Cover, want) {
								t.Fatalf("%s one-shot: cover %v, oracle %v", name, one.Cover, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestEngineSCCParallelConcurrent: callers racing on a fresh engine share
// one build of the component subgraphs and all get the oracle's cover.
func TestEngineSCCParallelConcurrent(t *testing.T) {
	g := multiSCCGraph(t, 7)
	opts := Options{K: 5}
	want := parallelOracle(t, g, TDBPlusPlus, opts)
	e := NewEngine(g)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				r, err := e.Solve(nil, SolveSpec{Algorithm: TDBPlusPlus, Opts: opts,
					Workers: 2, Strategy: StrategyParallelSCC})
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(r.Cover, want) {
					t.Errorf("cover %v, oracle %v", r.Cover, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// trianglesPlusGiant is 1,000 disjoint triangles plus one strongly
// connected ring of giant vertices with forward chords.
func trianglesPlusGiant(giant int) *digraph.Graph {
	const triangles = 1000
	b := digraph.NewBuilder(3*triangles + giant)
	for i := 0; i < triangles; i++ {
		v := VID(3 * i)
		b.AddEdge(v, v+1)
		b.AddEdge(v+1, v+2)
		b.AddEdge(v+2, v)
	}
	off := VID(3 * triangles)
	for i := 0; i < giant; i++ {
		b.AddEdge(off+VID(i), off+VID((i+1)%giant))
		b.AddEdge(off+VID(i), off+VID((i+7)%giant))
	}
	return b.Build()
}

// allocBytes returns the bytes f allocates per call, averaged over runs.
func allocBytes(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestEngineSCCParallelAllocs: a steady-state scc-parallel engine solve
// allocates O(n+m) bytes — the per-component covers plus bookkeeping per
// component — not O(n) per component, and it reuses the component
// subgraphs the first solve built instead of carving them again.
func TestEngineSCCParallelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := trianglesPlusGiant(5000)
	n, m := g.NumVertices(), g.NumEdges()
	spec := SolveSpec{Algorithm: TDBPlusPlus, Opts: Options{K: 5}, Workers: 1, Strategy: StrategyParallelSCC}
	e := NewEngine(g)
	solve := func() {
		if _, err := e.Solve(nil, spec); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	parts := e.sccParts()
	if len(parts) != 1001 {
		t.Fatalf("%d cached components, want 1001", len(parts))
	}
	perSolve := allocBytes(5, solve)

	// What the per-component covers allocate on their own, run directly on
	// the cached subgraphs with the options the solve hands them.
	covers := allocBytes(5, func() {
		for _, p := range parts {
			opts := Options{K: min(5, p.g.NumVertices()), MinLen: 3}
			if _, err := Compute(p.g, TDBPlusPlus, opts); err != nil {
				t.Fatal(err)
			}
		}
	})
	var cached float64
	for _, p := range parts {
		cached += float64(8*(2*p.g.NumVertices()+2) + 4*2*p.g.NumEdges() + 4*len(p.oldID))
	}
	overhead := perSolve - covers
	t.Logf("n=%d m=%d: %.0f B/solve, covers %.0f B, overhead %.0f B, cached subgraphs %.0f B",
		n, m, perSolve, covers, overhead, cached)
	// Rebuilding the subgraphs would add at least their size; the old
	// per-component whole-graph mask and relabel table added 9n bytes per
	// component (n*1001*9 ≈ 72 MB here).
	if overhead > cached/4 {
		t.Fatalf("solve allocates %.0f B beyond its per-component covers, want well under the %.0f B of cached subgraphs", overhead, cached)
	}
	if limit := 512 * float64(n+m); perSolve > limit {
		t.Fatalf("solve allocates %.0f B, want O(n+m) (<= %.0f)", perSolve, limit)
	}
	if got := e.sccParts(); &got[0] != &parts[0] {
		t.Fatal("engine rebuilt its component subgraphs")
	}
}
