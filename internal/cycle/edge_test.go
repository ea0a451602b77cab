package cycle

import (
	"math/rand/v2"
	"testing"

	"tdb/internal/digraph"
)

// The edge-rooted query must answer exactly "some constrained cycle of the
// active subgraph contains the edge (u, v)", for every edge of small random
// graphs with self-loops, 2-cycles and random active masks, on the mask
// and the view paths, filter on and off. A returned cycle must start u, v,
// be simple and active, close through existing edges and have a length in
// [minLen, k].
func TestFindThroughEdgeMatchesEnumerator(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 72))
	queries, yes := 0, 0
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.IntN(11)
		b := digraph.NewBuilder(n)
		b.KeepSelfLoops = true
		for i := rng.IntN(3 * n); i > 0; i-- {
			u, v := VID(rng.IntN(n)), VID(rng.IntN(n))
			b.AddEdge(u, v)
			if rng.IntN(4) == 0 {
				b.AddEdge(v, u) // a 2-cycle
			}
		}
		g := b.Build()
		active := make([]bool, n)
		view := digraph.NewActiveAdjacency(g, false)
		for v := range active {
			if rng.IntN(5) > 0 {
				active[v] = true
				view.Activate(VID(v))
			}
		}
		for minLen := 2; minLen <= 3; minLen++ {
			for k := minLen; k <= 8; k++ {
				// onCycle holds the edges of the oracle's cycles.
				onCycle := map[digraph.Edge]bool{}
				NewEnumerator(g, k, minLen, active).Visit(func(c []VID) bool {
					for i, x := range c {
						onCycle[digraph.Edge{U: x, V: c[(i+1)%len(c)]}] = true
					}
					return true
				})
				var dets []*BlockDetector
				for _, filter := range []bool{false, true} {
					mask := NewBlockDetector(g, k, minLen, active)
					onView := NewBlockDetectorView(view, k, minLen, nil)
					mask.Filter, onView.Filter = filter, filter
					dets = append(dets, mask, onView)
				}
				for _, e := range g.Edges() {
					want := onCycle[e]
					for i, d := range dets {
						c := d.FindThroughEdge(e.U, e.V)
						if (c != nil) != want {
							t.Fatalf("trial %d k=%d minLen=%d detector %d edge %v: found %v, want %v\ngraph=%v active=%v",
								trial, k, minLen, i, e, c, want, g.Edges(), active)
						}
						if c != nil {
							checkEdgeCycle(t, g, active, k, minLen, e, c)
						}
					}
					queries++
					if want {
						yes++
					}
				}
			}
		}
	}
	if yes == 0 || yes == queries {
		t.Fatalf("degenerate sample: %d of %d edge queries on a cycle", yes, queries)
	}
}

// checkEdgeCycle fails unless c is a simple active cycle u, v, ... of
// length in [minLen, k] whose consecutive vertices, the closing pair
// included, are edges of g.
func checkEdgeCycle(t *testing.T, g *digraph.Graph, active []bool, k, minLen int, e digraph.Edge, c []VID) {
	t.Helper()
	if len(c) < minLen || len(c) > k || c[0] != e.U || c[1] != e.V {
		t.Fatalf("edge %v: cycle %v has the wrong length or start (k=%d minLen=%d)", e, c, k, minLen)
	}
	seen := map[VID]bool{}
	for i, x := range c {
		if seen[x] || !active[x] || !digraph.HasArc(g, x, c[(i+1)%len(c)]) {
			t.Fatalf("edge %v: %v is not a simple active cycle of g", e, c)
		}
		seen[x] = true
	}
}

// An edge into a vertex without out-edges, a self-loop and an edge with an
// inactive endpoint answer "no" before the query pushes anything.
func TestFindThroughEdgeTrivialNo(t *testing.T) {
	gr := g(4, 0, 1, 1, 2, 2, 0, 2, 3)
	for _, active := range [][]bool{nil, {true, false, true, true}} {
		d := NewBlockDetector(gr, 3, 3, active)
		for _, e := range [][2]VID{{2, 3}, {0, 0}, {0, 1}, {1, 2}} {
			c := d.FindThroughEdge(e[0], e[1])
			if want := active == nil && e[0] != e[1] && e[1] != 3; (c != nil) != want {
				t.Fatalf("active=%v edge %v: found %v, want %v", active, e, c, want)
			}
		}
		if active != nil && d.Stats.Pushes != 0 {
			t.Fatalf("trivial queries pushed %d vertices", d.Stats.Pushes)
		}
	}
}
