package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"tdb/internal/digraph"
	"tdb/internal/gen"
	"tdb/internal/verify"
)

// The top-down family only asks order-independent questions of the working
// graph (cycle existence, shortest-closed-walk length), so switching the
// representation from the []bool mask to the compacted active-adjacency
// view must leave its covers bit-identical — across k, the SCC prefilter,
// and the parallel prepass. See DESIGN.md §7.
func TestViewMatchesMaskTopDown(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	for trial := 0; trial < 4; trial++ {
		gr := gen.PowerLaw(80+rng.IntN(80), 500+rng.IntN(500), 2.2, 0.3, rng.Uint64())
		for _, k := range []int{3, 5, 8} {
			for _, sccPre := range []bool{false, true} {
				for _, a := range []Algorithm{TDB, TDBPlus, TDBPlusPlus} {
					workers := []int{0}
					if a == TDBPlusPlus {
						workers = []int{0, 4}
					}
					for _, w := range workers {
						opts := Options{K: k, SCCPrefilter: sccPre, PrepassWorkers: w}
						maskOpts := opts
						maskOpts.maskWorkingGraph = true
						rv := mustCompute(t, gr, a, opts)
						rm := mustCompute(t, gr, a, maskOpts)
						if !slices.Equal(rv.Cover, rm.Cover) {
							t.Fatalf("%v k=%d scc=%v workers=%d: view cover %v != mask cover %v",
								a, k, sccPre, w, rv.Cover, rm.Cover)
						}
						checkCover(t, gr, a, opts, rv)
					}
				}
			}
		}
	}
}

// The bottom-up family materializes cycles, and WHICH cycle a DFS finds
// first depends on the order live neighbors are scanned — the compacted
// view permutes that order, so its covers may legitimately differ from the
// mask path's (DESIGN.md §7). Both must still be valid, BUR+'s minimal, and
// a fixed input must produce the same cover on every run (determinism).
func TestViewBottomUpValidAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 19))
	for trial := 0; trial < 4; trial++ {
		gr := gen.PowerLaw(60+rng.IntN(60), 400+rng.IntN(400), 2.2, 0.3, rng.Uint64())
		for _, k := range []int{3, 5, 8} {
			for _, a := range []Algorithm{BUR, BURPlus} {
				opts := Options{K: k}
				rv := mustCompute(t, gr, a, opts)
				checkCover(t, gr, a, opts, rv)
				maskOpts := opts
				maskOpts.maskWorkingGraph = true
				rm := mustCompute(t, gr, a, maskOpts)
				checkCover(t, gr, a, maskOpts, rm)
				if again := mustCompute(t, gr, a, opts); !slices.Equal(again.Cover, rv.Cover) {
					t.Fatalf("%v k=%d: nondeterministic view cover: %v then %v",
						a, k, rv.Cover, again.Cover)
				}
			}
		}
	}
}

// An engine's pooled view is scrambled by each run; covers must
// nevertheless match the one-shot path run for run, including the
// order-sensitive bottom-up family (ResetCanonical).
func TestEngineViewStableAcrossRuns(t *testing.T) {
	gr := gen.PowerLaw(150, 900, 2.2, 0.3, 77)
	e := NewEngine(gr)
	for _, a := range []Algorithm{BUR, BURPlus, TDB, TDBPlus, TDBPlusPlus} {
		opts := Options{K: 5}
		want := mustCompute(t, gr, a, opts)
		for round := 0; round < 3; round++ {
			got, err := e.Compute(nil, a, opts)
			if err != nil {
				t.Fatalf("%v round %d: %v", a, round, err)
			}
			if !slices.Equal(got.Cover, want.Cover) {
				t.Fatalf("%v round %d: engine cover %v != one-shot %v",
					a, round, got.Cover, want.Cover)
			}
		}
	}
}

// On the view path detectors scan only live edges, so a top-down run's
// EdgeScans counter must not exceed the mask path's, which filters the full
// CSR degree per scan.
func TestViewReducesEdgeScans(t *testing.T) {
	gr := gen.PowerLaw(300, 2500, 2.2, 0.3, 5)
	for _, a := range []Algorithm{TDBPlus, TDBPlusPlus} {
		opts := Options{K: 5}
		rv := mustCompute(t, gr, a, opts)
		maskOpts := opts
		maskOpts.maskWorkingGraph = true
		rm := mustCompute(t, gr, a, maskOpts)
		if rv.Stats.Detector.EdgeScans > rm.Stats.Detector.EdgeScans {
			t.Fatalf("%v: view EdgeScans %d > mask %d",
				a, rv.Stats.Detector.EdgeScans, rm.Stats.Detector.EdgeScans)
		}
		if rv.Stats.Detector.EdgeScans == 0 {
			t.Fatalf("%v: view EdgeScans is 0, counters not wired", a)
		}
	}
}

// On timeout the partial cover keeps every unprocessed CANDIDATE, but must
// not be inflated with vertices the SCC prefilter already proved to lie on
// no cycle.
func TestTimedOutCoverSkipsNonCandidates(t *testing.T) {
	// A triangle (the only candidates under the SCC prefilter) plus an
	// acyclic tail of 7 vertices.
	gr := g(10, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9)
	for _, a := range []Algorithm{TDB, TDBPlus, TDBPlusPlus} {
		opts := Options{
			K:            5,
			SCCPrefilter: true,
			Context:      cancelAfter(0), // expired before the first step
		}
		r := mustComputeTimedOut(t, gr, a, opts)
		for _, v := range r.Cover {
			if v > 2 {
				t.Fatalf("%v: timed-out cover %v contains non-candidate %d", a, r.Cover, v)
			}
		}
		// The top-down timeout contract: every unprocessed candidate joins
		// the cover, so the partial cover still intersects every cycle.
		if ok, witness := verify.IsValid(gr, 5, 3, r.Cover); !ok {
			t.Fatalf("%v: timed-out cover %v invalid, surviving cycle %v", a, r.Cover, witness)
		}
	}
}

// The same soundness argument covers prepass-resolved vertices: a cycle
// through one would lie inside its prefix graph (refuted by the prepass) or
// pass through a later unprocessed candidate kept in the cover. A timeout
// firing after the prepass must not re-add resolved vertices.
func TestTimedOutCoverSkipsPrepassResolved(t *testing.T) {
	// Triangle 0-1-2 plus an acyclic tail. With natural order, the prepass
	// resolves every vertex except 2 (the first whose prefix graph closes
	// the triangle). Two workers: a single-worker request skips the prepass
	// entirely (it cannot beat the sequential loop; see topDown).
	gr := g(10, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9)
	opts := Options{
		K:              5,
		PrepassWorkers: 2,
		// The prepass polls once (one chunk covers all 10 vertices, and the
		// worker whose claim is beyond n breaks before polling); every later
		// poll — the sequential loop — times out.
		Context: cancelAfter(1),
	}
	r := mustComputeTimedOut(t, gr, TDBPlusPlus, opts)
	if r.Stats.PrepassResolved == 0 {
		t.Fatal("prepass resolved nothing; the test graph no longer exercises the resolved branch")
	}
	if len(r.Cover) != 1 || r.Cover[0] != 2 {
		t.Fatalf("timed-out cover %v, want only the unresolved vertex [2]", r.Cover)
	}
	if ok, witness := verify.IsValid(gr, 5, 3, r.Cover); !ok {
		t.Fatalf("timed-out cover %v invalid, surviving cycle %v", r.Cover, witness)
	}
}

func mustComputeTimedOut(t *testing.T, gr *digraph.Graph, a Algorithm, opts Options) *Result {
	t.Helper()
	r, err := Compute(gr, a, opts)
	if err != nil {
		t.Fatalf("%v: %v", a, err)
	}
	if !r.Stats.TimedOut {
		t.Fatalf("%v: expected TimedOut", a)
	}
	return r
}

// BenchmarkCoverWorkingGraph runs the same end-to-end covers on both
// working-graph representations: Mask filters the full CSR degree at every
// scan, View traverses only live edges. The ratio is the tentpole win of
// the active-adjacency refactor; allocs differ by the one-shot view build.
func BenchmarkCoverWorkingGraph(b *testing.B) {
	gr := gen.PowerLaw(1400, 20000, 2.2, 0.3, 9)
	for _, a := range []Algorithm{TDB, TDBPlus, TDBPlusPlus, BUR, BURPlus} {
		for _, mask := range []bool{true, false} {
			name := a.String() + "/View"
			if mask {
				name = a.String() + "/Mask"
			}
			b.Run(name, func(b *testing.B) {
				opts := Options{K: 5, maskWorkingGraph: mask}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r, err := Compute(gr, a, opts)
					if err != nil {
						b.Fatal(err)
					}
					if r.Stats.TimedOut {
						b.Fatal("unexpected timeout")
					}
				}
			})
		}
	}
}
