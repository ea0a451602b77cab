package cycle

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"tdb/internal/digraph"
)

// The whole-graph check and the streaming maintainer's ApplyBatch answer a
// batch of sources with one block-detector query each, in order, where they
// once ran a batched BFS sweep that skipped the sources it could rule out.
// With minLen = 2 the BFS filter is exact: the shortest closed walk through
// s is a simple cycle through s, so "no cycle of length <= k through s" is
// exactly CanPrune(s). The tests below hold the detector's answer for every
// source of a batch to the scalar filter's, on both working-graph backends,
// at batch sizes below, at and past one 64-bit word (the old sweep's
// width), and with the detector, the filter and the peel sharing a Scratch.
// They keep the names of the batched filter's tests, whose cases they
// inherit.

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
// self-loops: neither the scalar filter nor the detector at minLen 2 counts
// a self-loop as a cycle, and they must agree.
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

// exactMinLen is the shortest cycle length at which the BFS filter's
// closed-walk test is exact.
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
// batch sizes and both working-graph backends, a block detector answering a
// batch of sources one query at a time reports, for every source, exactly
// the negation of the scalar filter's CanPrune, with the two sharing one
// Scratch as the top-down cover pairs them.
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
		for _, k := range []int{3, 5, 8} {
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
						sc := NewScratch(n)
						var scalar *BFSFilter
						var det *BlockDetector
						switch backend {
						case "mask":
							scalar = NewBFSFilterWith(tc.g, k, active, sc)
							det = NewBlockDetectorWith(tc.g, k, exactMinLen, active, sc)
						case "view":
							view := activeView(tc.g, active)
							scalar = NewBFSFilterView(view, k, sc)
							det = NewBlockDetectorView(view, k, exactMinLen, sc)
						}
						found := 0
						for round := 0; round < 3; round++ {
							for i, s := range batchSources(rng, n, size) {
								got := det.HasCycleThrough(s)
								if want := !scalar.CanPrune(s); got != want {
									t.Fatalf("round %d source %d (position %d): detector found=%v, scalar unpruned=%v",
										round, s, i, got, want)
								}
								if got {
									found++
								}
							}
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

// TestBatchFilterScratchReuse runs whole-graph and masked detectors back to
// back on one shared scratch, batch after batch, to catch contamination of
// the DFS group between queries of different detectors.
func TestBatchFilterScratchReuse(t *testing.T) {
	g := bfRandomGraph(120, 500, 9)
	n := g.NumVertices()
	sc := NewScratch(n)
	active := make([]bool, n)
	for v := range active {
		active[v] = v%4 != 0
	}
	scalar := NewBFSFilter(g, 5, nil)
	det := NewBlockDetectorWith(g, 5, exactMinLen, nil, sc)
	scalarMasked := NewBFSFilter(g, 5, active)
	detMasked := NewBlockDetectorWith(g, 5, exactMinLen, active, sc)

	for round := 0; round < 3; round++ {
		for v := 0; v < n; v++ {
			if got, want := det.HasCycleThrough(VID(v)), !scalar.CanPrune(VID(v)); got != want {
				t.Fatalf("round %d full-graph source %d: detector=%v scalar unpruned=%v", round, v, got, want)
			}
		}
		for v := 0; v < n; v++ {
			if got, want := detMasked.HasCycleThrough(VID(v)), !scalarMasked.CanPrune(VID(v)); got != want {
				t.Fatalf("round %d masked source %d: detector=%v scalar unpruned=%v", round, v, got, want)
			}
		}
	}
}

// TestBatchFilterViewTracksActivation: the view-backed detector must see
// Activate/Deactivate changes between batches, like the scalar filter.
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
	src := []VID{0, 1, 2, 3}
	for _, s := range src {
		if !det.HasCycleThrough(s) {
			t.Fatalf("all-active: source %d found no cycle, want one", s)
		}
	}
	// Every cycle runs over 0->1, so deactivating 1 leaves none.
	view.Deactivate(1)
	for _, s := range src {
		if det.HasCycleThrough(s) {
			t.Fatalf("after deactivate: source %d found a cycle, want none", s)
		}
	}
	view.Activate(1)
	for _, s := range src {
		if !det.HasCycleThrough(s) {
			t.Fatalf("re-activated: source %d found no cycle, want one", s)
		}
	}
}

// sweepWidths are the batch widths W (sources per batch) of the sweep
// tests: a single source, a word short by one, exactly one word, one past a
// word, exact multiples of four and eight words, and a long batch with a
// ragged tail (600 = 9*64 + 24).
var sweepWidths = []int{1, 63, 64, 65, 256, 512, 600}

// firstUnpruned returns the smallest active vertex the scalar filter does
// not prune, or -1 when it prunes every active vertex.
func firstUnpruned(f *BFSFilter, active []bool) int {
	for v, live := range active {
		if live && !f.CanPrune(VID(v)) {
			return v
		}
	}
	return -1
}

// TestBatchBFSFilterWidthSweep checks batches of every width W: per source,
// the detector matches the scalar filter on both backends (the view
// detector against the mask filter, across backends). On the mask backend
// it also runs HasHopConstrainedCycle's peel over the same mask on the same
// scratch: with minLen 2 a vertex the filter prunes lies on no cycle, so
// the peel must clear exactly the active vertices below the first unpruned
// one, stop there with true, and leave the rest of the mask alone.
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
		for _, k := range []int{3, 5, 8} {
			for _, size := range sweepWidths {
				t.Run(fmt.Sprintf("%s/k=%d/W=%d", tc.name, k, size), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(uint64(k*size), 99))
					active := make([]bool, n)
					for v := range active {
						active[v] = rng.IntN(5) > 0
					}
					src := batchSources(rng, n, size)
					scalar := NewBFSFilter(tc.g, k, active)
					for _, backend := range []string{"mask", "view"} {
						t.Run(backend, func(t *testing.T) {
							sc := NewScratch(n)
							var det *BlockDetector
							if backend == "mask" {
								det = NewBlockDetectorWith(tc.g, k, exactMinLen, active, sc)
							} else {
								det = NewBlockDetectorView(activeView(tc.g, active), k, exactMinLen, sc)
							}
							for i, s := range src {
								if got, want := det.HasCycleThrough(s), !scalar.CanPrune(s); got != want {
									t.Fatalf("position %d source %d: detector found=%v, scalar unpruned=%v", i, s, got, want)
								}
							}
							if det.Stats.Queries != int64(size) {
								t.Fatalf("Queries = %d, want %d", det.Stats.Queries, size)
							}
							if backend != "mask" {
								return
							}
							first := firstUnpruned(scalar, active)
							peeled := append([]bool(nil), active...)
							if got := HasHopConstrainedCycle(tc.g, k, exactMinLen, peeled, sc); got != (first >= 0) {
								t.Fatalf("peel = %v, want %v (first unpruned %d)", got, first >= 0, first)
							}
							for v := range peeled {
								want := active[v] && (first >= 0 && v >= first)
								if peeled[v] != want {
									t.Fatalf("after the peel vertex %d active=%v, want %v (first unpruned %d)", v, peeled[v], want, first)
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
// detector batches of mixed widths and whole-graph peels on one shared
// Scratch — the engine pool's sharing pattern, where a pooled scratch
// serves HasHopConstrainedCycle over different masks in turn. Each batch
// must leave the DFS buffers clean for the next user.
func TestBatchFilterMixedWidthScratchReuse(t *testing.T) {
	g := bfRandomGraph(640, 2600, 14)
	n := g.NumVertices()
	sc := NewScratch(n)
	active := make([]bool, n)
	for v := range active {
		active[v] = v%3 != 1
	}
	scalar := NewBFSFilter(g, 5, nil)
	scalarMasked := NewBFSFilter(g, 5, active)
	det := NewBlockDetectorWith(g, 5, exactMinLen, nil, sc)
	detMasked := NewBlockDetectorWith(g, 5, exactMinLen, active, sc)
	wantPeel := firstUnpruned(scalarMasked, active) >= 0
	for round, w := range []int{n, 64, 200, n, 65, 1} {
		lo := (round * 97) % (n - w + 1)
		for v := VID(lo); v < VID(lo+w); v++ {
			if got, want := det.HasCycleThrough(v), !scalar.CanPrune(v); got != want {
				t.Fatalf("round %d (W=%d) whole-graph source %d: detector=%v scalar unpruned=%v", round, w, v, got, want)
			}
		}
		if got := HasHopConstrainedCycle(g, 5, exactMinLen, append([]bool(nil), active...), sc); got != wantPeel {
			t.Fatalf("round %d (W=%d) masked peel = %v, want %v", round, w, got, wantPeel)
		}
		for v := VID(lo); v < VID(lo+w); v++ {
			if got, want := detMasked.HasCycleThrough(v), !scalarMasked.CanPrune(v); got != want {
				t.Fatalf("round %d (W=%d) masked source %d: detector=%v scalar unpruned=%v", round, w, v, got, want)
			}
		}
	}
}
