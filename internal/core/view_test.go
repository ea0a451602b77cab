package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"tdb/internal/digraph"
	"tdb/internal/gen"
	"tdb/internal/verify"
)

// sparseGraphs are the representation tests' inputs below average degree
// 2, where the view serves as it does on dense graphs: a sparse power-law
// graph and a planted-cycles graph.
func sparseGraphs(t *testing.T, seed uint64) []*digraph.Graph {
	t.Helper()
	gs := []*digraph.Graph{
		gen.PowerLaw(300, 450, 2.2, 0.3, seed),
		gen.PlantedCycles(300, 20, 3, 6, 320, seed).Graph,
	}
	for _, gr := range gs {
		if gr.NumEdges() >= 2*gr.NumVertices() {
			t.Fatalf("sparse input n=%d m=%d has average degree >= 2", gr.NumVertices(), gr.NumEdges())
		}
	}
	return gs
}

// The top-down family only asks order-independent questions of the working
// graph (cycle existence, shortest-closed-walk length), so switching the
// representation from the []bool mask to the compacted active-adjacency
// view must leave its covers bit-identical — across density, k and the SCC
// prefilter. See DESIGN.md §7.
func TestViewMatchesMaskTopDown(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	graphs := sparseGraphs(t, 5)
	for trial := 0; trial < 4; trial++ {
		graphs = append(graphs, gen.PowerLaw(80+rng.IntN(80), 500+rng.IntN(500), 2.2, 0.3, rng.Uint64()))
	}
	for _, gr := range graphs {
		for _, k := range []int{3, 5, 8} {
			for _, sccPre := range []bool{false, true} {
				for _, a := range []Algorithm{TDB, TDBPlus, TDBPlusPlus} {
					opts := Options{K: k, SCCPrefilter: sccPre}
					maskOpts := opts
					maskOpts.maskWorkingGraph = true
					rv := mustCompute(t, gr, a, opts)
					rm := mustCompute(t, gr, a, maskOpts)
					if !slices.Equal(rv.Cover, rm.Cover) {
						t.Fatalf("%v k=%d scc=%v: view cover %v != mask cover %v",
							a, k, sccPre, rv.Cover, rm.Cover)
					}
					checkCover(t, gr, a, opts, rv)
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
	graphs := sparseGraphs(t, 7)
	for trial := 0; trial < 4; trial++ {
		graphs = append(graphs, gen.PowerLaw(60+rng.IntN(60), 400+rng.IntN(400), 2.2, 0.3, rng.Uint64()))
	}
	for _, gr := range graphs {
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
// order-sensitive bottom-up family (Reset(true) restores the canonical rows).
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
// scan, View traverses only live edges; allocs differ by the one-shot view
// build. The dense row is a power-law graph at average degree 14, the
// sparse row a 30k-vertex planted-cycles graph at average degree 1.4,
// where the view has the least to win and its O(m) build the most weight.
func BenchmarkCoverWorkingGraph(b *testing.B) {
	graphs := []struct {
		name string
		g    *digraph.Graph
	}{
		{"dense", gen.PowerLaw(1400, 20000, 2.2, 0.3, 9)},
		{"sparse", gen.PlantedCycles(30000, 1500, 3, 5, 36000, 9).Graph},
	}
	for _, in := range graphs {
		gr := in.g
		for _, a := range []Algorithm{TDB, TDBPlus, TDBPlusPlus, BUR, BURPlus} {
			for _, mask := range []bool{true, false} {
				name := in.name + "/" + a.String() + "/View"
				if mask {
					name = in.name + "/" + a.String() + "/Mask"
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
}
