package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
)

// plainBottomUp is the reference BUR (Alg. 4-6) and, when minimal is set,
// BUR+ (Alg. 7) over the plain DFS detector (Alg. 5), written out without
// the production loop's stop polls and scratch reuse. mask picks the
// working-graph representation, since a view's rows are scanned in another
// order than the mask's once a vertex is deactivated. It ignores the SCC
// prefilter: a vertex on no cycle finds none and so changes nothing.
func plainBottomUp(gr *digraph.Graph, opts Options, minimal, mask bool) []VID {
	n := gr.NumVertices()
	var det *cycle.PlainDetector
	var active working
	if mask {
		m := digraph.NewVertexMask(n, true)
		det, active = cycle.NewPlainDetector(gr, opts.K, opts.MinLen, m.Raw()), m
	} else {
		view := digraph.NewActiveAdjacency(gr, true)
		det, active = cycle.NewPlainDetectorView(view, opts.K, opts.MinLen, nil), view
	}
	h := make([]int64, n)
	var cover []VID
	for _, s := range vertexOrder(gr, opts) {
		for c := det.FindFrom(s); c != nil; c = det.FindFrom(s) {
			for _, v := range c {
				h[v]++
			}
			u := c[0]
			for _, v := range c[1:] {
				if h[v] > h[u] || h[v] == h[u] && opts.Weights != nil && opts.Weights[v] < opts.Weights[u] {
					u = v
				}
			}
			cover = append(cover, u)
			active.Deactivate(u)
		}
	}
	if !minimal {
		return cover
	}
	kept := cover[:0]
	for _, v := range pruneOrder(cover, opts) {
		active.Activate(v)
		if det.HasCycleThrough(v) {
			active.Deactivate(v)
			kept = append(kept, v)
		}
	}
	return kept
}

// BUR and BUR+ run on the block detector, whose FindFrom returns the plain
// DFS's first cycle: their covers must equal the plain-DFS reference's, cover
// vertex for cover vertex, on both working-graph representations, with the
// SCC prefilter off and on, under every order and every MinLen.
func TestBottomUpMatchesPlainReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 13))
	covers := 0
	for iter := 0; iter < 150; iter++ {
		n := 4 + rng.IntN(36)
		gr := randomGraph(n, n+rng.IntN(3*n), rng.Uint64())
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + rng.IntN(9)) // small range: weight ties occur
		}
		minLen := 2 + rng.IntN(4)
		k := minLen + rng.IntN(5)
		for _, order := range []Order{OrderNatural, OrderDegreeDesc, OrderRandom, OrderWeighted} {
			for _, mask := range []bool{false, true} {
				for _, prefilter := range []bool{false, true} {
					opts := Options{K: k, MinLen: minLen, Order: order, Seed: uint64(iter),
						SCCPrefilter: prefilter, maskWorkingGraph: mask}
					if order == OrderWeighted {
						opts.Weights = w
					}
					for _, a := range []Algorithm{BUR, BURPlus} {
						got := mustCompute(t, gr, a, opts).Cover
						want := plainBottomUp(gr, opts, a == BURPlus, mask)
						slices.Sort(want) // Compute returns the cover sorted
						if !slices.Equal(got, want) {
							t.Fatalf("iter=%d %v order=%v mask=%v scc=%v k=%d minlen=%d: cover %v, plain reference %v\nedges=%v",
								iter, a, order, mask, prefilter, k, minLen, got, want, gr.Edges())
						}
						covers++
					}
				}
			}
		}
	}
	if covers == 0 {
		t.Fatal("no covers compared")
	}
}
