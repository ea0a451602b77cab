package tdb

import (
	"context"
	"slices"
	"testing"
)

// multiSCCGraph has many small non-trivial SCCs (the condensation splits).
// At ~1.44 edges per vertex it runs on the vertex-mask working graph.
func multiSCCGraph() *Graph {
	return GenPlantedCycles(400, 20, 3, 5, 500, 17).Graph
}

// chordRing adds a directed ring over vertices base..base+n-1 with one
// back-chord (v+3) -> v per vertex, each closing a 4-cycle. The ring has 2n
// edges.
func chordRing(b *Builder, base, n int) {
	for i := 0; i < n; i++ {
		b.AddEdge(VID(base+i), VID(base+(i+1)%n))
		b.AddEdge(VID(base+(i+3)%n), VID(base+i))
	}
}

// denseMultiSCCGraph is a denser split condensation than multiSCCGraph's:
// ten 40-vertex chord rings (average degree 2), each linked forward to the
// next.
func denseMultiSCCGraph() *Graph {
	const parts, size = 10, 40
	b := NewBuilder(parts * size)
	for p := 0; p < parts; p++ {
		chordRing(b, p*size, size)
		if p > 0 {
			b.AddEdge(VID(p*size-1), VID(p*size))
		}
	}
	return b.Build()
}

// singleSCCGraph is one giant strongly connected component: a 1200-vertex
// chord ring.
func singleSCCGraph() *Graph {
	b := NewBuilder(1200)
	chordRing(b, 0, 1200)
	return b.Build()
}

// TestPlanAutoSelection: the planner must choose the documented strategy
// for each graph shape × worker budget × algorithm combination.
func TestPlanAutoSelection(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		g    *Graph
		opts []Option
		want string
	}{
		{"split condensation, many workers", multiSCCGraph(),
			[]Option{WithWorkers(4)}, "scc-parallel"},
		{"split condensation, one worker", multiSCCGraph(),
			[]Option{WithWorkers(1)}, "sequential"},
		{"dense split condensation, many workers", denseMultiSCCGraph(),
			[]Option{WithWorkers(4)}, "scc-parallel"},
		{"dense split condensation, one worker", denseMultiSCCGraph(),
			[]Option{WithWorkers(1)}, "sequential"},
		{"giant SCC, many workers, TDB++", singleSCCGraph(),
			[]Option{WithWorkers(4)}, "sequential"},
		{"giant SCC, one worker", singleSCCGraph(),
			[]Option{WithWorkers(1)}, "sequential"},
		{"giant SCC, many workers, BUR+", singleSCCGraph(),
			[]Option{WithWorkers(4), WithAlgorithm(BURPlus)}, "sequential"},
		{"acyclic graph", FromEdges(50, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
			[]Option{WithWorkers(4)}, "sequential"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Solve(ctx, tc.g, 5, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if r.Stats.Strategy != tc.want {
				t.Fatalf("auto plan chose %q, want %q", r.Stats.Strategy, tc.want)
			}
			if r.Stats.StrategyPinned {
				t.Fatal("auto plan reported as pinned")
			}
			// The engine's cached planner must agree.
			er, err := NewEngine(tc.g).Solve(ctx, 5, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if er.Stats.Strategy != tc.want {
				t.Fatalf("engine auto plan chose %q, want %q", er.Stats.Strategy, tc.want)
			}
		})
	}
}

// TestPlanPinnedStrategies: WithStrategy pins the plan regardless of graph
// shape, and Stats reports the pin.
func TestPlanPinnedStrategies(t *testing.T) {
	// Auto would pick scc-parallel at 4 workers on both graphs.
	graphs := []*Graph{multiSCCGraph(), denseMultiSCCGraph()}
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"pin sequential", []Option{WithWorkers(4), WithStrategy(StrategySequential)}, "sequential"},
		{"pin parallel", []Option{WithStrategy(StrategyParallelSCC), WithWorkers(2)}, "scc-parallel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, g := range graphs {
				r, err := Solve(nil, g, 5, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				if r.Stats.Strategy != tc.want || !r.Stats.StrategyPinned {
					t.Fatalf("plan = %q (pinned=%v), want pinned %q",
						r.Stats.Strategy, r.Stats.StrategyPinned, tc.want)
				}
			}
		})
	}
}

// TestPlanRecordsWhatRuns: Stats must describe the executed path. A
// pinned sequential plan runs on one worker whatever the budget, a strategy
// value outside the two that exist is an error rather than a silently
// relabelled sequential run, and the removed strategy name no longer
// parses.
func TestPlanRecordsWhatRuns(t *testing.T) {
	g := singleSCCGraph()
	r, err := Solve(nil, g, 5, WithStrategy(StrategySequential), WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Strategy != "sequential" || r.Stats.Workers != 1 || !r.Stats.StrategyPinned {
		t.Fatalf("pinned sequential recorded strategy=%q workers=%d pinned=%v",
			r.Stats.Strategy, r.Stats.Workers, r.Stats.StrategyPinned)
	}
	if r.Stats.PrepassResolved != 0 || r.Stats.FilterBatchWidth != 0 || r.Stats.Detector.Batches != 0 {
		t.Fatalf("TDB++ ran a batched tier: resolved=%d width=%d batches=%d",
			r.Stats.PrepassResolved, r.Stats.FilterBatchWidth, r.Stats.Detector.Batches)
	}
	if _, err := Solve(nil, g, 5, WithStrategy(Strategy(3))); err == nil {
		t.Fatal("unknown strategy value solved without an error")
	}
	if _, err := NewEngine(g).Solve(nil, 5, WithStrategy(Strategy(3))); err == nil {
		t.Fatal("engine: unknown strategy value solved without an error")
	}
	if _, err := ParseStrategy("prepass"); err == nil {
		t.Fatal(`ParseStrategy("prepass") succeeded`)
	}
}

// TestAutoMatchesPinned: on the reference workloads the auto-selected plan
// must produce the identical cover to the same strategy pinned explicitly —
// planning changes the path, never the answer of that path.
func TestAutoMatchesPinned(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		g       *Graph
		workers int
	}{
		{"multi-scc", multiSCCGraph(), 4},
		{"single-scc", singleSCCGraph(), 4},
		{"multi-scc single worker", multiSCCGraph(), 1},
		{"dense multi-scc", denseMultiSCCGraph(), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			auto, err := Solve(ctx, tc.g, 5, WithWorkers(tc.workers), WithOrder(OrderDegreeAsc))
			if err != nil {
				t.Fatal(err)
			}
			strat, err := ParseStrategy(auto.Stats.Strategy)
			if err != nil {
				t.Fatal(err)
			}
			pinned, err := Solve(ctx, tc.g, 5, WithWorkers(tc.workers),
				WithOrder(OrderDegreeAsc), WithStrategy(strat))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(auto.Cover, pinned.Cover) {
				t.Fatalf("auto cover %v != pinned-%v cover %v", auto.Cover, strat, pinned.Cover)
			}
			if rep := Verify(tc.g, 5, 3, auto.Cover, false); !rep.Valid {
				t.Fatal("auto cover invalid")
			}
		})
	}
}

// TestEngineSolveMatchesPackageSolve across repeated runs (recycled
// scratch), algorithms, strategies and hop constraints. The engine and the
// one-shot package solve run the same top-down loop — the engine only pools
// its scratch — so for the top-down family they must agree not only on the
// cover but on every per-candidate decision counter, and neither may run a
// batched filter tier.
func TestEngineSolveMatchesPackageSolve(t *testing.T) {
	ctx := context.Background()
	// The DAG has no cycle at all: under WithSCCPrefilter TDB++ has no
	// candidate to check.
	dag := FromEdges(200, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 199}})
	// Every graph runs on the active-adjacency view, which the engine pools
	// and resets between runs: the power-law graph, the chord rings and
	// their split condensation at average degree >= 2, multiSCCGraph and
	// the DAG below it.
	dense := GenPowerLaw(300, 1500, 2.2, 0.3, 12)
	for _, g := range []*Graph{multiSCCGraph(), denseMultiSCCGraph(), singleSCCGraph(), dag, dense} {
		for _, k := range []int{3, 5, 8} {
			for _, opts := range [][]Option{
				nil,
				{WithWorkers(4)},
				{WithAlgorithm(TDB)},
				{WithAlgorithm(TDBPlus)},
				{WithAlgorithm(BURPlus)},
				{WithWorkers(3), WithStrategy(StrategyParallelSCC)},
				{WithSCCPrefilter()},
			} {
				want, err := Solve(ctx, g, k, opts...)
				if err != nil {
					t.Fatal(err)
				}
				checkNoBatchTier(t, want.Stats)
				e := NewEngine(g)
				for round := 0; round < 3; round++ {
					got, err := e.Solve(ctx, k, opts...)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.Cover, want.Cover) {
						t.Fatalf("k=%d %v round %d: engine cover %v != package cover %v",
							k, got.Stats.Strategy, round, got.Cover, want.Cover)
					}
					checkNoBatchTier(t, got.Stats)
					switch got.Stats.Algorithm {
					case "TDB", "TDB+", "TDB++":
						if gc, wc := countersOf(got.Stats), countersOf(want.Stats); gc != wc {
							t.Fatalf("k=%d %s %v round %d: engine counters %+v != package counters %+v",
								k, got.Stats.Algorithm, got.Stats.Strategy, round, gc, wc)
						}
					}
				}
			}
		}
	}
}

// loopCounters are the counters that record what the top-down loop
// decided and how: candidates checked, filter prunes, detector queries and
// the edges those queries scanned.
type loopCounters struct {
	Checked, FilterPruned, Queries, EdgeScans int64
}

func countersOf(st Stats) loopCounters {
	return loopCounters{st.Checked, st.FilterPruned, st.Detector.Queries, st.Detector.EdgeScans}
}

// checkNoBatchTier: the batch counters are always zero.
func checkNoBatchTier(t *testing.T, st Stats) {
	t.Helper()
	if st.Detector.Batches != 0 || st.FilterBatchWidth != 0 {
		t.Fatalf("%s %v: Detector.Batches = %d, FilterBatchWidth = %d, want 0 and 0",
			st.Algorithm, st.Strategy, st.Detector.Batches, st.FilterBatchWidth)
	}
}

// TestSolveEdgeCover: WithEdgeCover returns the transversal in
// Result.Edges, and removing those edges destroys every constrained cycle.
func TestSolveEdgeCover(t *testing.T) {
	g := GenSmallWorld(200, 2, 0.3, 23)
	r, err := Solve(nil, g, 5, WithEdgeCover())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Edges) == 0 {
		t.Fatal("no edges selected on a cyclic graph")
	}
	drop := make(map[Edge]bool, len(r.Edges))
	for _, e := range r.Edges {
		drop[e] = true
	}
	b := NewBuilder(g.NumVertices())
	for _, e := range g.Edges() {
		if !drop[e] {
			b.AddEdge(e.U, e.V)
		}
	}
	if HasHopConstrainedCycle(b.Build(), 5) {
		t.Fatal("constrained cycle survives the edge transversal")
	}
}

// TestSolveUnconstrained: WithUnconstrained covers cycles of every length.
func TestSolveUnconstrained(t *testing.T) {
	// A 9-ring has exactly one (long) cycle.
	b := NewBuilder(9)
	for v := VID(0); v < 9; v++ {
		b.AddEdge(v, (v+1)%9)
	}
	g := b.Build()
	r, err := Solve(nil, g, 0, WithUnconstrained())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cover) != 1 {
		t.Fatalf("cover %v, want one vertex", r.Cover)
	}
}

// TestSolveContextCancellation: a done context passed to Solve stops the
// run under every strategy.
func TestSolveContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range [][]Option{
		{WithStrategy(StrategySequential)},
		{WithStrategy(StrategyParallelSCC), WithWorkers(2)},
		{WithEdgeCover()},
	} {
		r, err := Solve(ctx, multiSCCGraph(), 5, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Stats.TimedOut {
			t.Fatalf("%v: cancelled context did not mark TimedOut", r.Stats.Strategy)
		}
	}
}

// TestEngineCycleQueries: the pooled engine queries agree with the
// package-level one-shot functions.
func TestEngineCycleQueries(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}})
	e := NewEngine(g)
	for round := 0; round < 3; round++ { // repeated runs exercise the pool
		if c := e.FindCycle(5, 0); len(c) != 3 {
			t.Fatalf("round %d: FindCycle = %v", round, c)
		}
		if c := e.FindCycle(5, 3); c != nil {
			t.Fatalf("round %d: vertex 3 is on no cycle, got %v", round, c)
		}
		if !e.HasHopConstrainedCycle(5) {
			t.Fatalf("round %d: graph has a triangle", round)
		}
	}
	dag := NewEngine(FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}))
	if dag.HasHopConstrainedCycle(5) {
		t.Fatal("DAG has no cycle")
	}
}

// TestIngestRenumberingRoundTrip: a graph renumbered at ingest solves like
// any other graph, and its cover, mapped back through InversePerm, is a
// valid cover of the input graph (minimal for the algorithms that promise
// it). Renumbering is an isomorphism, so both properties carry over.
func TestIngestRenumberingRoundTrip(t *testing.T) {
	g := GenPowerLaw(300, 1800, 2.2, 0.3, 22)
	minimal := map[Algorithm]bool{TDB: true, TDBPlus: true, TDBPlusPlus: true, BURPlus: true}
	for _, mode := range []Renumbering{RenumberDegree, RenumberBFS} {
		perm := RenumberPerm(g, mode)
		inv := InversePerm(perm)
		rg := g.Renumber(perm)
		for _, algo := range []Algorithm{TDBPlusPlus, TDBPlus, TDB, BURPlus, BUR, DARCDV} {
			res, err := Solve(nil, rg, 5, WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			cover := make([]VID, len(res.Cover))
			for i, v := range res.Cover {
				cover[i] = inv[v]
			}
			rep := Verify(g, 5, 3, cover, minimal[algo])
			if !rep.Valid || (minimal[algo] && !rep.Minimal) {
				t.Fatalf("%v %v: valid=%v minimal=%v witness %v redundant %v",
					mode, algo, rep.Valid, rep.Minimal, rep.Witness, rep.Redundant)
			}
		}
	}
}
