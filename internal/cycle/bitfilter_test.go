package cycle

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"tdb/internal/digraph"
)

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
// self-loops: the scalar filter never counts a self-loop as a closed walk,
// and the batched filters must agree.
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

// batchSources picks size sources (with repetition allowed across batches
// but not needed within) from [0, n).
func batchSources(rng *rand.Rand, n, size int) []VID {
	src := make([]VID, size)
	for i := range src {
		src[i] = VID(rng.IntN(n))
	}
	return src
}

// TestBatchBFSFilterMatchesScalar is the equivalence property of the
// tentpole: across random graphs, hop constraints, batch sizes (including
// multi-word batches) and both working-graph backends, CanPruneBatch must
// report EXACTLY the scalar filter's CanPrune answer for every source.
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
						var scalar *BFSFilter
						var batch *BatchBFSFilter
						switch backend {
						case "mask":
							scalar = NewBFSFilter(tc.g, k, active)
							batch = NewBatchBFSFilter(tc.g, k, active)
						case "view":
							view := digraph.NewActiveAdjacency(tc.g, false)
							for v := 0; v < n; v++ {
								if active[v] {
									view.Activate(VID(v))
								}
							}
							sc := NewScratch(n)
							scalar = NewBFSFilterView(view, k, sc)
							batch = NewBatchBFSFilterView(view, k, sc)
						}
						for round := 0; round < 3; round++ {
							src := batchSources(rng, n, size)
							got := make([]bool, size)
							batch.CanPruneBatch(src, got)
							for i, s := range src {
								want := scalar.CanPrune(s)
								if got[i] != want {
									t.Fatalf("round %d source %d (lane %d): batch pruned=%v, scalar pruned=%v",
										round, s, i, got[i], want)
								}
							}
						}
						if batch.Stats.Queries != int64(3*size) {
							t.Fatalf("batch counted %d queries, want %d", batch.Stats.Queries, 3*size)
						}
					})
				}
			}
		}
	}
}

// TestBatchFilterScratchReuse runs whole-graph and masked batches back to
// back on one shared scratch to catch cross-batch contamination of the lane
// group.
func TestBatchFilterScratchReuse(t *testing.T) {
	g := bfRandomGraph(120, 500, 9)
	n := g.NumVertices()
	sc := NewScratch(n)
	active := make([]bool, n)
	for v := range active {
		active[v] = v%4 != 0
	}
	scalar := NewBFSFilter(g, 5, nil)
	batch := NewBatchBFSFilterWith(g, 5, nil, sc)
	scalarMasked := NewBFSFilter(g, 5, active)
	batchMasked := NewBatchBFSFilterWith(g, 5, active, sc)

	src := make([]VID, n)
	for v := range src {
		src[v] = VID(v)
	}
	got := make([]bool, n)
	for round := 0; round < 3; round++ {
		batch.CanPruneBatch(src, got)
		for v, p := range got {
			if want := scalar.CanPrune(VID(v)); p != want {
				t.Fatalf("round %d full-graph source %d: batch=%v scalar=%v", round, v, p, want)
			}
		}
		batchMasked.CanPruneBatch(src, got)
		for v, p := range got {
			if want := scalarMasked.CanPrune(VID(v)); p != want {
				t.Fatalf("round %d masked source %d: batch=%v scalar=%v", round, v, p, want)
			}
		}
	}
}

// TestBatchFilterViewTracksActivation: the view-backed batch filter must see
// Activate/Deactivate changes between batches, like the scalar filter.
func TestBatchFilterViewTracksActivation(t *testing.T) {
	// Triangle 0->1->2->0 plus a chord vertex 3 on a 4-cycle.
	b := digraph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	view := digraph.NewActiveAdjacency(g, true)
	f := NewBatchBFSFilterView(view, 5, nil)
	src := []VID{0, 1, 2, 3}
	pruned := make([]bool, 4)
	f.CanPruneBatch(src, pruned)
	for i, p := range pruned {
		if p {
			t.Fatalf("all-active: source %d pruned, want unpruned (on a cycle)", i)
		}
	}
	view.Deactivate(1) // breaks the triangle; 2->3->0 path still cycles via 0->...? 0->1 gone
	f.CanPruneBatch(src, pruned)
	// With 1 inactive, the only cycle is 0->? 0's out is {1}; no cycle
	// remains that includes 0,2,3? 2->0,2->3,3->0 and 0->1(dead): no edge
	// leaves 0 into an active vertex, so no cycle survives at all.
	want := []bool{true, true, true, true}
	for i := range src {
		if pruned[i] != want[i] {
			t.Fatalf("after deactivate: source %d pruned=%v want %v", src[i], pruned[i], want[i])
		}
	}
	view.Activate(1)
	f.CanPruneBatch(src, pruned)
	for i, p := range pruned {
		if p {
			t.Fatalf("re-activated: source %d pruned, want unpruned", i)
		}
	}
}

// sweepWidths are the batch widths W (sources per CanPruneBatch call) of
// the multi-group sweep tests: a single lane, a word short by one, exactly
// one word, one past a word, exact multiples of four and eight words, and a
// long batch with a ragged tail (600 = 9*64 + 24). The filter splits every
// batch into consecutive 64-lane groups, so these cover group splitting at
// and around every word boundary.
var sweepWidths = []int{1, 63, 64, 65, 256, 512, 600}

// TestBatchBFSFilterWidthSweep checks multi-group batches: for every batch
// width W, CanPruneBatch must match the scalar filter per lane on both
// backends, including partial trailing groups.
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
					for _, backend := range []string{"mask", "view"} {
						t.Run(backend, func(t *testing.T) {
							var batch *BatchBFSFilter
							if backend == "mask" {
								batch = NewBatchBFSFilter(tc.g, k, active)
							} else {
								view := digraph.NewActiveAdjacency(tc.g, false)
								for v := 0; v < n; v++ {
									if active[v] {
										view.Activate(VID(v))
									}
								}
								batch = NewBatchBFSFilterView(view, k, nil)
							}
							scalar := NewBFSFilter(tc.g, k, active)
							got := make([]bool, len(src))
							batch.CanPruneBatch(src, got)
							for i, s := range src {
								if want := scalar.CanPrune(s); got[i] != want {
									t.Fatalf("lane %d source %d: batch pruned=%v, scalar pruned=%v", i, s, got[i], want)
								}
							}
							if groups := int64((size + BatchWidth - 1) / BatchWidth); batch.Stats.Batches != groups {
								t.Fatalf("Batches = %d, want %d 64-lane groups", batch.Stats.Batches, groups)
							}
						})
					}
				})
			}
		}
	}
}

// TestBatchFilterMixedWidthScratchReuse alternates whole-graph and masked
// BatchBFSFilter batches of mixed widths on one shared Scratch — the engine
// pool's sharing pattern, where a pooled scratch serves
// HasHopConstrainedCycle sweeps over different graphs in turn. Each batch
// must leave the lane buffers clean for the other filter.
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
	batch := NewBatchBFSFilterWith(g, 5, nil, sc)
	batchMasked := NewBatchBFSFilterWith(g, 5, active, sc)
	got := make([]bool, n)
	for round, w := range []int{n, 64, 200, n, 65, 1} {
		lo := (round * 97) % (n - w + 1)
		src := make([]VID, w)
		for i := range src {
			src[i] = VID(lo + i)
		}
		batch.CanPruneBatch(src, got[:w])
		for i, v := range src {
			if want := scalar.CanPrune(v); got[i] != want {
				t.Fatalf("round %d (W=%d) BFS source %d: batch=%v scalar=%v", round, w, v, got[i], want)
			}
		}
		batchMasked.CanPruneBatch(src, got[:w])
		for i, v := range src {
			if want := scalarMasked.CanPrune(v); got[i] != want {
				t.Fatalf("round %d (W=%d) masked source %d: batch=%v scalar=%v", round, w, v, got[i], want)
			}
		}
	}
}
