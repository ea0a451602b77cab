package cycle

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"tdb/internal/digraph"
)

// The whole-graph check and the streaming maintainer's ApplyBatch answer a
// batch of sources with one block-detector query each, in order, and TDB++
// runs every query with the filter on. The tests below hold, for every
// source of a batch, the detector's answer at minLen 2 and the filtered
// detector's answer and prune at its own MinLen to the enumeration oracle
// (cycleVertices), on both
// working-graph backends, at batch sizes below, at and past one 64-bit word
// (the width of the batched sweep these tests once checked), and with the
// detectors and the peel sharing a Scratch query by query. The two tests
// named after the batched BFS filter keep the names, and the subtests, of
// the tests whose cases they inherit.

// bfRandomGraph builds a random digraph with n vertices and ~m edges.
func bfRandomGraph(n, m int, seed uint64) *digraph.Graph {
	rng := rand.New(rand.NewPCG(seed, seed^0x5bd1e995))
	b := digraph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u := VID(rng.IntN(n))
		v := VID(rng.IntN(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// bfSelfLoopGraph is bfRandomGraph with KeepSelfLoops set and ~n/4 planted
// self-loops: neither the filter nor the detector at minLen 2 may count a
// self-loop as a cycle.
func bfSelfLoopGraph(n, m int, seed uint64) *digraph.Graph {
	rng := rand.New(rand.NewPCG(seed, seed^0xc2b2ae35))
	b := digraph.NewBuilder(n)
	b.KeepSelfLoops = true
	for i := 0; i < m; i++ {
		b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
	}
	for i := 0; i < n/4; i++ {
		v := VID(rng.IntN(n))
		b.AddEdge(v, v)
	}
	return b.Build()
}

// batchSources picks size sources (with repetition allowed) from [0, n).
func batchSources(rng *rand.Rand, n, size int) []VID {
	src := make([]VID, size)
	for i := range src {
		src[i] = VID(rng.IntN(n))
	}
	return src
}

// exactMinLen is the shortest cycle length at which a detector's answer is
// exactly the oracle's.
const exactMinLen = 2

// activeView returns an active-adjacency view with exactly the vertices
// active marks live.
func activeView(g *digraph.Graph, active []bool) *digraph.ActiveAdjacency {
	view := digraph.NewActiveAdjacency(g, false)
	for v, live := range active {
		if live {
			view.Activate(VID(v))
		}
	}
	return view
}

// TestBatchBFSFilterMatchesScalar: across random graphs, hop constraints,
// batch sizes and both working-graph backends, a block detector at minLen 2
// answering a batch of sources one query at a time finds a cycle exactly
// where the oracle lists one, and a filtered detector on the same Scratch
// prunes exactly the live sources the oracle at its MinLen puts on no
// cycle.
func TestBatchBFSFilterMatchesScalar(t *testing.T) {
	graphs := []struct {
		name string
		g    *digraph.Graph
	}{
		{"sparse-150", bfRandomGraph(150, 300, 1)},
		{"dense-60", bfRandomGraph(60, 700, 2)},
		{"mid-300", bfRandomGraph(300, 1200, 3)},
		{"selfloops-120", bfSelfLoopGraph(120, 400, 6)},
	}
	for _, tc := range graphs {
		n := tc.g.NumVertices()
		for _, k := range filterKs {
			for _, backend := range []string{"mask", "view"} {
				for _, size := range []int{1, 7, 64, 200} {
					t.Run(fmt.Sprintf("%s/k=%d/%s/batch=%d", tc.name, k, backend, size), func(t *testing.T) {
						rng := rand.New(rand.NewPCG(uint64(k*size), 77))
						// A random active submask exercises the membership
						// filtering; ~1/5 of vertices inactive.
						active := make([]bool, n)
						for v := range active {
							active[v] = rng.IntN(5) > 0
						}
						onCycle := cycleVertices(tc.g, k, exactMinLen, active)
						onCycleFil := cycleVertices(tc.g, k, filterMinLen(k), active)
						sc := NewScratch(n)
						var det, fil *BlockDetector
						switch backend {
						case "mask":
							det = NewBlockDetectorWith(tc.g, k, exactMinLen, active, sc)
							fil = NewBlockDetectorWith(tc.g, k, filterMinLen(k), active, sc)
						case "view":
							view := activeView(tc.g, active)
							det = NewBlockDetectorView(view, k, exactMinLen, sc)
							fil = NewBlockDetectorView(view, k, filterMinLen(k), sc)
						}
						fil.Filter = true
						found := 0
						for round := 0; round < 3; round++ {
							src := batchSources(rng, n, size)
							for i, s := range src {
								got := det.HasCycleThrough(s)
								if want := active[s] && onCycle[s]; got != want {
									t.Fatalf("round %d source %d (position %d): detector found=%v, oracle %v",
										round, s, i, got, want)
								}
								if got {
									found++
								}
							}
							checkFilterPrunes(t, fil, src, active, onCycleFil)
						}
						if det.Stats.Queries != int64(3*size) {
							t.Fatalf("detector counted %d queries, want %d", det.Stats.Queries, 3*size)
						}
						if det.Stats.CyclesFound != int64(found) {
							t.Fatalf("detector counted %d cycles, want %d", det.Stats.CyclesFound, found)
						}
					})
				}
			}
		}
	}
}

// TestBatchFilterScratchReuse runs whole-graph and masked detectors, plain
// and filtered, back to back on one shared scratch, batch after batch, to
// catch contamination of the scratch between queries of different
// detectors.
func TestBatchFilterScratchReuse(t *testing.T) {
	g := bfRandomGraph(120, 500, 9)
	n := g.NumVertices()
	sc := NewScratch(n)
	active := make([]bool, n)
	for v := range active {
		active[v] = v%4 != 0
	}
	onCycle := cycleVertices(g, 5, exactMinLen, nil)
	onCycleMasked := cycleVertices(g, 5, exactMinLen, active)
	onCycleFil := cycleVertices(g, 5, DefaultMinLen, nil)
	onCycleFilMasked := cycleVertices(g, 5, DefaultMinLen, active)
	det := NewBlockDetectorWith(g, 5, exactMinLen, nil, sc)
	fil := NewBlockDetectorWith(g, 5, DefaultMinLen, nil, sc)
	fil.Filter = true
	detMasked := NewBlockDetectorWith(g, 5, exactMinLen, active, sc)
	filMasked := NewBlockDetectorWith(g, 5, DefaultMinLen, active, sc)
	filMasked.Filter = true

	for round := 0; round < 3; round++ {
		for v := 0; v < n; v++ {
			if got := det.HasCycleThrough(VID(v)); got != onCycle[v] {
				t.Fatalf("round %d full-graph source %d: detector=%v oracle %v", round, v, got, onCycle[v])
			}
			checkFilterPrunes(t, fil, []VID{VID(v)}, nil, onCycleFil)
		}
		for v := 0; v < n; v++ {
			if got, want := detMasked.HasCycleThrough(VID(v)), active[v] && onCycleMasked[v]; got != want {
				t.Fatalf("round %d masked source %d: detector=%v oracle %v", round, v, got, want)
			}
			checkFilterPrunes(t, filMasked, []VID{VID(v)}, active, onCycleFilMasked)
		}
	}
}

// TestBatchFilterViewTracksActivation: the view-backed detector, plain and
// filtered, must see Activate/Deactivate changes between batches.
func TestBatchFilterViewTracksActivation(t *testing.T) {
	// Triangle 0->1->2->0 plus a chord vertex 3 on a 4-cycle 0->1->2->3->0.
	b := digraph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	view := digraph.NewActiveAdjacency(g, true)
	det := NewBlockDetectorView(view, 5, exactMinLen, nil)
	fil := NewBlockDetectorView(view, 5, DefaultMinLen, nil)
	fil.Filter = true
	src := []VID{0, 1, 2, 3}
	for _, s := range src {
		if !det.HasCycleThrough(s) {
			t.Fatalf("all-active: source %d found no cycle, want one", s)
		}
	}
	checkFilterPrunes(t, fil, src, nil, cycleVertices(g, 5, DefaultMinLen, nil))
	// Every cycle runs over 0->1, so deactivating 1 leaves none.
	view.Deactivate(1)
	for _, s := range src {
		if det.HasCycleThrough(s) {
			t.Fatalf("after deactivate: source %d found a cycle, want none", s)
		}
	}
	without1 := []bool{true, false, true, true}
	checkFilterPrunes(t, fil, src, without1, cycleVertices(g, 5, DefaultMinLen, without1))
	view.Activate(1)
	for _, s := range src {
		if !det.HasCycleThrough(s) {
			t.Fatalf("re-activated: source %d found no cycle, want one", s)
		}
	}
	checkFilterPrunes(t, fil, src, nil, cycleVertices(g, 5, DefaultMinLen, nil))
}

// sweepWidths are the batch widths W (sources per batch) of the sweep
// tests: a single source, a word short by one, exactly one word, one past a
// word, exact multiples of four and eight words, and a long batch with a
// ragged tail (600 = 9*64 + 24).
var sweepWidths = []int{1, 63, 64, 65, 256, 512, 600}

// firstOnCycle returns the smallest active vertex the oracle puts on a
// cycle, or -1 when there is none.
func firstOnCycle(onCycle, active []bool) int {
	for v, live := range active {
		if live && onCycle[v] {
			return v
		}
	}
	return -1
}

// TestBatchBFSFilterWidthSweep checks batches of every width W: per source,
// the detector at minLen 2 matches the oracle and the filtered detector
// prunes exactly the sources off every cycle of its MinLen, on both
// backends. On the mask
// backend it also runs HasHopConstrainedCycle's peel over the same
// candidates on the same scratch: the peel must clear exactly the active
// vertices below the first one on a cycle, stop there with true, and leave
// the candidate mask itself alone.
func TestBatchBFSFilterWidthSweep(t *testing.T) {
	graphs := []struct {
		name string
		g    *digraph.Graph
	}{
		{"mid-700", bfRandomGraph(700, 2800, 11)},
		{"selfloops-600", bfSelfLoopGraph(600, 2400, 12)},
	}
	for _, tc := range graphs {
		n := tc.g.NumVertices()
		for _, k := range filterKs {
			for _, size := range sweepWidths {
				t.Run(fmt.Sprintf("%s/k=%d/W=%d", tc.name, k, size), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(uint64(k*size), 99))
					active := make([]bool, n)
					for v := range active {
						active[v] = rng.IntN(5) > 0
					}
					src := batchSources(rng, n, size)
					onCycle := cycleVertices(tc.g, k, exactMinLen, active)
					onCycleFil := cycleVertices(tc.g, k, filterMinLen(k), active)
					for _, backend := range []string{"mask", "view"} {
						t.Run(backend, func(t *testing.T) {
							sc := NewScratch(n)
							var det, fil *BlockDetector
							if backend == "mask" {
								det = NewBlockDetectorWith(tc.g, k, exactMinLen, active, sc)
								fil = NewBlockDetectorWith(tc.g, k, filterMinLen(k), active, sc)
							} else {
								view := activeView(tc.g, active)
								det = NewBlockDetectorView(view, k, exactMinLen, sc)
								fil = NewBlockDetectorView(view, k, filterMinLen(k), sc)
							}
							fil.Filter = true
							for i, s := range src {
								if got, want := det.HasCycleThrough(s), active[s] && onCycle[s]; got != want {
									t.Fatalf("position %d source %d: detector found=%v, oracle %v", i, s, got, want)
								}
							}
							if det.Stats.Queries != int64(size) {
								t.Fatalf("Queries = %d, want %d", det.Stats.Queries, size)
							}
							checkFilterPrunes(t, fil, src, active, onCycleFil)
							if backend != "mask" {
								return
							}
							first := firstOnCycle(onCycle, active)
							candidates := append([]bool(nil), active...)
							if got := HasHopConstrainedCycle(tc.g, k, exactMinLen, candidates, sc); got != (first >= 0) {
								t.Fatalf("peel = %v, want %v (first on a cycle %d)", got, first >= 0, first)
							}
							for v, peeled := range sc.peel {
								want := active[v] && (first >= 0 && v >= first)
								if peeled != want {
									t.Fatalf("after the peel vertex %d live=%v, want %v (first on a cycle %d)", v, peeled, want, first)
								}
								if candidates[v] != active[v] {
									t.Fatalf("the peel wrote candidate %d", v)
								}
							}
						})
					}
				})
			}
		}
	}
}

// TestBatchFilterMixedWidthScratchReuse alternates whole-graph and masked
// detector batches of mixed widths, plain and filtered, and peels on one
// shared Scratch — the engine pool's sharing pattern, where a pooled
// scratch serves HasHopConstrainedCycle over different candidate sets in
// turn. Each batch must leave the scratch clean for the next user.
func TestBatchFilterMixedWidthScratchReuse(t *testing.T) {
	g := bfRandomGraph(640, 2600, 14)
	n := g.NumVertices()
	sc := NewScratch(n)
	active := make([]bool, n)
	for v := range active {
		active[v] = v%3 != 1
	}
	onCycle := cycleVertices(g, 5, exactMinLen, nil)
	onCycleMasked := cycleVertices(g, 5, exactMinLen, active)
	onCycleFil := cycleVertices(g, 5, DefaultMinLen, nil)
	onCycleFilMasked := cycleVertices(g, 5, DefaultMinLen, active)
	det := NewBlockDetectorWith(g, 5, exactMinLen, nil, sc)
	fil := NewBlockDetectorWith(g, 5, DefaultMinLen, nil, sc)
	fil.Filter = true
	detMasked := NewBlockDetectorWith(g, 5, exactMinLen, active, sc)
	filMasked := NewBlockDetectorWith(g, 5, DefaultMinLen, active, sc)
	filMasked.Filter = true
	wantPeel := firstOnCycle(onCycleMasked, active) >= 0
	wantWholePeel := slices.Contains(onCycle, true)
	for round, w := range []int{n, 64, 200, n, 65, 1} {
		lo := (round * 97) % (n - w + 1)
		src := allSources(n)[lo : lo+w]
		for _, v := range src {
			if got := det.HasCycleThrough(v); got != onCycle[v] {
				t.Fatalf("round %d (W=%d) whole-graph source %d: detector=%v oracle %v", round, w, v, got, onCycle[v])
			}
		}
		checkFilterPrunes(t, fil, src, nil, onCycleFil)
		if got := HasHopConstrainedCycle(g, 5, exactMinLen, active, sc); got != wantPeel {
			t.Fatalf("round %d (W=%d) masked peel = %v, want %v", round, w, got, wantPeel)
		}
		if got := HasHopConstrainedCycle(g, 5, exactMinLen, nil, sc); got != wantWholePeel {
			t.Fatalf("round %d (W=%d) whole-graph peel = %v, want %v", round, w, got, wantWholePeel)
		}
		for _, v := range src {
			if got, want := detMasked.HasCycleThrough(v), active[v] && onCycleMasked[v]; got != want {
				t.Fatalf("round %d (W=%d) masked source %d: detector=%v oracle %v", round, w, v, got, want)
			}
		}
		checkFilterPrunes(t, filMasked, src, active, onCycleFilMasked)
	}
}
