package core

import (
	"context"
	"slices"
	"testing"

	"tdb/internal/gen"
	"tdb/internal/verify"
)

// TestEngineMatchesCompute: the pooled-scratch engine must return the same
// cover as the one-shot path, for every algorithm, across repeated runs
// (the second and later runs exercise recycled scratch).
func TestEngineMatchesCompute(t *testing.T) {
	gr := randomGraph(150, 450, 21)
	e := NewEngine(gr)
	for _, a := range allAlgorithms() {
		opts := Options{K: 5}
		want, err := Compute(gr, a, opts)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		for round := 0; round < 3; round++ {
			got, err := e.Compute(context.Background(), a, opts)
			if err != nil {
				t.Fatalf("%v round %d: %v", a, round, err)
			}
			if !slices.Equal(got.Cover, want.Cover) {
				t.Fatalf("%v round %d: engine cover %v != compute cover %v", a, round, got.Cover, want.Cover)
			}
		}
	}
}

// TestEngineAllocsSteadyState: after warm-up, an engine cover must allocate
// far less than the one-shot path — the point of the pooled scratch arena.
func TestEngineAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		// The race runtime randomizes sync.Pool caching (Get may drop the
		// pooled scratch on purpose), so the engine-vs-one-shot allocation
		// gap this test asserts does not exist under -race.
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	gr := gen.SmallWorld(2000, 2, 0.2, 7)
	e := NewEngine(gr)
	run := func() {
		if _, err := e.Compute(nil, TDBPlusPlus, Options{K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool
	engineAllocs := testing.AllocsPerRun(5, run)
	oneShotAllocs := testing.AllocsPerRun(5, func() {
		if _, err := Compute(gr, TDBPlusPlus, Options{K: 5}); err != nil {
			t.Fatal(err)
		}
	})
	// The one-shot path allocates the mask, order buffer, and all detector
	// tables every run; the engine only the result. Require a decisive gap
	// rather than exact counts to stay robust to runtime changes.
	if engineAllocs >= oneShotAllocs {
		t.Fatalf("engine allocs/run = %.0f, want below one-shot %.0f", engineAllocs, oneShotAllocs)
	}
}

// TestCancellationContext: a pre-cancelled context must stop every
// algorithm family and mark the result TimedOut.
func TestCancellationContext(t *testing.T) {
	gr := gen.SmallWorld(300, 2, 0.3, 13)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range allAlgorithms() {
		r, err := Compute(gr, a, Options{K: 5, Context: ctx})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if !r.Stats.TimedOut {
			t.Fatalf("%v: cancelled context did not mark TimedOut", a)
		}
	}
	// The edge-transversal variant takes the same options.
	er, err := TopDownEdges(gr, Options{K: 5, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !er.Stats.TimedOut {
		t.Fatal("TopDownEdges: cancelled context did not mark TimedOut")
	}
	// And the SCC-partitioned parallel solver.
	pr, err := solveParallel(gr, TDBPlusPlus, Options{K: 5, Context: ctx}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Stats.TimedOut {
		t.Fatal("scc-parallel solve: cancelled context did not mark TimedOut")
	}
}

// TestComputeParallelWeighted: per-component runs must remap the cost
// vector to subgraph IDs (regression: forwarding the full-length Weights
// slice used to fail validation on every component smaller than n).
func TestComputeParallelWeighted(t *testing.T) {
	// Two disjoint triangles; expensive vertices 0 and 3 must stay out.
	gr := g(6, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3)
	w := []float64{100, 1, 1, 100, 1, 1}
	r, err := solveParallel(gr, TDBPlusPlus, Options{K: 5, Order: OrderWeighted, Weights: w}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cover) != 2 {
		t.Fatalf("cover %v, want one vertex per triangle", r.Cover)
	}
	for _, v := range r.Cover {
		if v == 0 || v == 3 {
			t.Fatalf("cover %v contains an expensive vertex", r.Cover)
		}
	}
}

// TestComputeParallelTimeoutCoverStillValid: a timed-out parallel run must
// keep unprocessed components in the cover (the sequential loop's safe
// side), so the partial result still intersects every constrained cycle.
func TestComputeParallelTimeoutCoverStillValid(t *testing.T) {
	gr := gen.PlantedCycles(400, 30, 3, 5, 600, 3).Graph
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := solveParallel(gr, TDBPlusPlus, Options{K: 5, Context: ctx}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats.TimedOut {
		t.Fatal("cancelled run did not mark TimedOut")
	}
	if ok, witness := verify.IsValid(gr, 5, 3, r.Cover); !ok {
		t.Fatalf("timed-out parallel cover leaves cycle %v uncovered", witness)
	}
}

// TestOneShotEngineDropsScratch: a one-shot engine (the one behind the
// package-level tdb.Solve) hands no scratch to a sync.Pool, so none of it
// stays reachable once a solve returns, whatever the solve ran: every
// algorithm under both strategies, the edge transversal and the cycle
// queries. A pooling engine after the same solves holds its run scratch,
// which is what the pools are for.
func TestOneShotEngineDropsScratch(t *testing.T) {
	gr := gen.PlantedCycles(300, 20, 3, 5, 400, 5).Graph
	want := make(map[Algorithm][]VID)
	for _, a := range allAlgorithms() {
		r, err := Compute(gr, a, Options{K: 5})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		want[a] = r.Cover
	}
	solveAll := func(e *Engine) {
		t.Helper()
		for _, a := range allAlgorithms() {
			for _, st := range []Strategy{StrategySequential, StrategyParallelSCC} {
				r, err := e.Solve(context.Background(), SolveSpec{Algorithm: a, Opts: Options{K: 5}, Workers: 2, Strategy: st})
				if err != nil {
					t.Fatalf("%v %v: %v", a, st, err)
				}
				if st == StrategySequential && !slices.Equal(r.Cover, want[a]) {
					t.Fatalf("%v: cover %v, want %v", a, r.Cover, want[a])
				}
			}
		}
		if _, err := e.TopDownEdges(Options{K: 5}); err != nil {
			t.Fatal(err)
		}
		e.FindCycle(5, 3, 0)
		e.HasHopConstrainedCycle(5, 3)
	}
	e := NewOneShotEngine(gr)
	solveAll(e)
	if e.cycPool != nil {
		t.Fatal("a one-shot engine built a cycle-scratch pool")
	}
	if rs := e.runPool.Get(); rs != nil {
		t.Fatalf("a one-shot engine pooled a run scratch: %T", rs)
	}
	if raceEnabled {
		return // the race runtime drops pooled values at random
	}
	pooled := NewEngine(gr)
	solveAll(pooled)
	if _, err := pooled.Compute(nil, TDBPlusPlus, Options{K: 5}); err != nil {
		t.Fatal(err)
	}
	pooled.runPool.New = nil
	if pooled.runPool.Get() == nil {
		t.Fatal("a pooling engine kept no run scratch: the check above proves nothing")
	}
}
