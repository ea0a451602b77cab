package cycle

import (
	"math/rand/v2"
	"testing"

	"tdb/internal/digraph"
)

// The view-backed detector paths must agree with the mask paths on every
// answer, and the filtered ones with the oracle: both run on the same
// active subgraph, only the edge-iteration strategy differs.
func TestViewDetectorsMatchMask(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 29))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.IntN(30)
		b := digraph.NewBuilder(n)
		m := rng.IntN(5 * n)
		for i := 0; i < m; i++ {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		g := b.Build()

		active := make([]bool, n)
		view := digraph.NewActiveAdjacency(g, false)
		for v := 0; v < n; v++ {
			if rng.IntN(4) > 0 { // ~75% live
				active[v] = true
				view.Activate(VID(v))
			}
		}

		for _, k := range []int{3, 5, 8} {
			maskPlain := NewPlainDetector(g, k, DefaultMinLen, active)
			viewPlain := NewPlainDetectorView(view, k, DefaultMinLen, nil)
			maskBlock := NewBlockDetector(g, k, DefaultMinLen, active)
			viewBlock := NewBlockDetectorView(view, k, DefaultMinLen, nil)
			for v := 0; v < n; v++ {
				mp := maskPlain.HasCycleThrough(VID(v))
				if vp := viewPlain.HasCycleThrough(VID(v)); vp != mp {
					t.Fatalf("k=%d v=%d: plain view=%v mask=%v\ngraph=%v active=%v",
						k, v, vp, mp, g.Edges(), active)
				}
				if vb := viewBlock.HasCycleThrough(VID(v)); vb != mp {
					t.Fatalf("k=%d v=%d: block view=%v plain mask=%v\ngraph=%v active=%v",
						k, v, vb, mp, g.Edges(), active)
				}
				if mb := maskBlock.HasCycleThrough(VID(v)); mb != mp {
					t.Fatalf("k=%d v=%d: block mask=%v plain mask=%v", k, v, mb, mp)
				}
			}
			// On the view path a detector never scans a dead edge, so its
			// scan count cannot exceed the mask path's.
			if viewBlock.Stats.EdgeScans > maskBlock.Stats.EdgeScans {
				t.Fatalf("k=%d: view scanned %d edges, mask %d",
					k, viewBlock.Stats.EdgeScans, maskBlock.Stats.EdgeScans)
			}
		}

		// The filtered detectors prune exactly where the oracle at their
		// MinLen puts a live vertex on no cycle, on both backends.
		for _, k := range filterKs {
			onCycle := cycleVertices(g, k, filterMinLen(k), active)
			maskFil := NewBlockDetector(g, k, filterMinLen(k), active)
			viewFil := NewBlockDetectorView(view, k, filterMinLen(k), nil)
			maskFil.Filter, viewFil.Filter = true, true
			checkFilterPrunes(t, maskFil, allSources(n), active, onCycle)
			checkFilterPrunes(t, viewFil, allSources(n), active, onCycle)
		}
	}
}

// A view-backed FindFrom must return a real constrained cycle of the live
// subgraph whenever the mask path finds one.
func TestViewFindFromYieldsValidCycle(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 17))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.IntN(20)
		b := digraph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		g := b.Build()
		view := digraph.NewActiveAdjacency(g, true)
		active := make([]bool, n)
		for i := range active {
			active[i] = true
		}
		det := NewPlainDetectorView(view, 5, DefaultMinLen, nil)
		ref := NewPlainDetector(g, 5, DefaultMinLen, active)
		for v := 0; v < n; v++ {
			c := det.FindFrom(VID(v))
			if (c != nil) != (ref.FindFrom(VID(v)) != nil) {
				t.Fatalf("v=%d: view found=%v, mask disagrees", v, c)
			}
			if c == nil {
				continue
			}
			if len(c) < DefaultMinLen || len(c) > 5 || c[0] != VID(v) {
				t.Fatalf("v=%d: malformed cycle %v", v, c)
			}
			for i, u := range c {
				if !g.HasEdge(u, c[(i+1)%len(c)]) {
					t.Fatalf("v=%d: %v is not a cycle of the graph", v, c)
				}
			}
		}
	}
}
