package cycle

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"tdb/internal/digraph"
)

// The filter (BlockDetector.Filter, the tagged meet that makes the paper's
// Alg. 11 exact) is checked against the enumeration oracle at the
// detector's own MinLen, never against another filter: at MinLen 2 and 3
// a query must prune exactly when the Enumerator lists no cycle of length
// in [MinLen, k] through s, and answer "yes" otherwise, with no DFS.

// filterKs are the hop constraints the filter tests cover. k = 2 is the
// one whose seed depth (k-1)/2 = 0 is raised to 1.
var filterKs = []int{2, 3, 4, 5, 8}

// filterMinLen is the shortest cycle length a detector at hop constraint k
// may reject: the default 3, or 2 where k = 2 allows nothing else.
func filterMinLen(k int) int { return min(DefaultMinLen, k) }

// cycleVertices marks every vertex of the active subgraph (nil = whole
// graph) that lies on a cycle of length in [minLen, k], as the Enumerator
// lists them. The enumeration stops once every vertex on a cycle of any
// length is marked, which keeps dense graphs cheap (at minLen 3 a vertex
// whose only cycles are 2-cycles is never marked, and the enumeration may
// run to its end).
func cycleVertices(g digraph.Adjacency, k, minLen int, active []bool) []bool {
	n := g.NumVertices()
	on := make([]bool, n)
	left := 0
	for v := 0; v < n; v++ {
		if onAnyCycle(g, active, VID(v)) {
			left++
		}
	}
	if left == 0 {
		return on
	}
	NewEnumerator(g, k, minLen, active).Visit(func(c []VID) bool {
		for _, v := range c {
			if !on[v] {
				on[v] = true
				left--
			}
		}
		return left > 0
	})
	return on
}

// onAnyCycle reports whether the live vertex s returns to itself along
// live edges without a self-loop, with no bound on the length.
func onAnyCycle(g digraph.Adjacency, active []bool, s VID) bool {
	live := func(v VID) bool { return active == nil || active[v] }
	if !live(s) {
		return false
	}
	seen := make([]bool, g.NumVertices())
	seen[s] = true
	stack := []VID{s}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Out(u) {
			if w == s && u != s {
				return true
			}
			if live(w) && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// checkFilterPrunes queries every source with det, whose Filter is on and
// whose MinLen is at most 3, and fails unless each query answers exactly
// onCycle, the oracle at det's MinLen (cycleVertices), counts a prune
// exactly when its source is live in active (nil = every vertex) and
// unmarked in onCycle, and pushes nothing: the meet alone answers.
func checkFilterPrunes(t *testing.T, det *BlockDetector, sources []VID, active, onCycle []bool) {
	t.Helper()
	for i, s := range sources {
		before, pushes := det.Stats.BFSPruned, det.Stats.Pushes
		found := det.HasCycleThrough(s)
		pruned := det.Stats.BFSPruned != before
		live := active == nil || active[s]
		if want := live && !onCycle[s]; pruned != want {
			t.Fatalf("k=%d minLen=%d position %d source %d: pruned=%v, want %v (live=%v, on a cycle=%v)",
				det.k, det.minLen, i, s, pruned, want, live, onCycle[s])
		}
		if found != (live && onCycle[s]) {
			t.Fatalf("k=%d minLen=%d source %d: found=%v, oracle %v", det.k, det.minLen, s, found, live && onCycle[s])
		}
		if det.Stats.Pushes != pushes {
			t.Fatalf("k=%d minLen=%d source %d: the query ran the DFS after the meet", det.k, det.minLen, s)
		}
	}
}

// allSources lists every vertex of g.
func allSources(n int) []VID {
	src := make([]VID, n)
	for v := range src {
		src[v] = VID(v)
	}
	return src
}

// TestFilterMatchesEnumerator: on random graphs, with and without a mask,
// with and without self-loops, a filtered query prunes exactly the live
// vertices the oracle puts on no cycle of length in [MinLen, k].
func TestFilterMatchesEnumerator(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 66))
	for iter := 0; iter < 100; iter++ {
		n := 2 + rng.IntN(14)
		b := digraph.NewBuilder(n)
		b.KeepSelfLoops = iter%4 == 1
		for i := rng.IntN(3 * n); i > 0; i-- {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		gr := b.Build()
		var active []bool
		if iter%2 == 0 {
			active = make([]bool, n)
			for i := range active {
				active[i] = rng.IntN(5) > 0
			}
		}
		for _, k := range filterKs {
			t.Run(fmt.Sprintf("iter=%d/k=%d", iter, k), func(t *testing.T) {
				for _, minLen := range []int{2, filterMinLen(k)} {
					det := NewBlockDetector(gr, k, minLen, active)
					det.Filter = true
					checkFilterPrunes(t, det, allSources(n), active, cycleVertices(gr, k, minLen, active))
				}
			})
		}
	}
}

// TestFilterWalkLengths pins the filter's boundary: a 4-cycle is pruned at
// k = 3 and kept from k = 4 on, and a 2-cycle is kept at minLen 2 and
// pruned at minLen 3, where the paper's untagged filter let it through to
// a DFS that then rejected it (the paper's Example 2).
func TestFilterWalkLengths(t *testing.T) {
	ring := g(4, 0, 1, 1, 2, 2, 3, 3, 0)
	for _, k := range filterKs {
		det := NewBlockDetector(ring, k, filterMinLen(k), nil)
		det.Filter = true
		for s := VID(0); s < 4; s++ {
			found := det.HasCycleThrough(s)
			if found != (k >= 4) {
				t.Fatalf("4-cycle k=%d s=%d: found=%v", k, s, found)
			}
		}
		want := int64(0)
		if k < 4 {
			want = 4
		}
		if det.Stats.BFSPruned != want {
			t.Fatalf("4-cycle k=%d: pruned %d queries, want %d", k, det.Stats.BFSPruned, want)
		}
	}
	pair := g(2, 0, 1, 1, 0)
	for _, k := range filterKs {
		for _, minLen := range []int{2, filterMinLen(k)} {
			det := NewBlockDetector(pair, k, minLen, nil)
			det.Filter = true
			if found := det.HasCycleThrough(0); found != (minLen == 2) {
				t.Fatalf("2-cycle k=%d minLen=%d: found=%v", k, minLen, found)
			}
			if pruned := det.Stats.BFSPruned == 1; pruned != (minLen == 3) || det.Stats.Pushes != 0 {
				t.Fatalf("2-cycle k=%d minLen=%d: pruned=%v pushes=%d, want a prune exactly at minLen 3 and no DFS",
					k, minLen, pruned, det.Stats.Pushes)
			}
		}
	}
}

// TestFilterNoInNeighbors: a source with no live in-edge is pruned at every
// k. The seed runs out at s, so the query settles no vertex forward. A
// self-loop is no in-edge.
func TestFilterNoInNeighbors(t *testing.T) {
	b := digraph.NewBuilder(4)
	b.KeepSelfLoops = true
	for _, e := range [][2]VID{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 1}, {3, 3}} {
		b.AddEdge(e[0], e[1])
	}
	gr := b.Build()
	// 3 lies on the cycle 1 -> 2 -> 3 -> 1; masking 2 leaves it only its
	// self-loop and the in-edge from a dead vertex.
	active := []bool{true, true, false, true}
	for _, k := range filterKs {
		for _, src := range []struct {
			s      VID
			active []bool
		}{{0, nil}, {3, active}} {
			det := NewBlockDetector(gr, k, filterMinLen(k), src.active)
			det.Filter = true
			if det.HasCycleThrough(src.s) || det.Stats.BFSPruned != 1 {
				t.Fatalf("k=%d s=%d: a source with no live in-edge was not pruned", k, src.s)
			}
			if det.Stats.BFSVisited != 0 {
				t.Fatalf("k=%d s=%d: the forward BFS settled %d vertices after the seed ran out",
					k, src.s, det.Stats.BFSVisited)
			}
		}
	}
}
