package cycle

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"tdb/internal/digraph"
)

// The tagged meet (BlockDetector.closesWithin) is checked against the
// enumeration oracle at the detector's own MinLen: at MinLen <= 3 a
// filtered yes/no query must answer exactly the oracle, with no DFS; at
// MinLen 4 it must prune exactly the queries the oracle puts on no cycle
// of length in [3, k], so it never prunes an oracle-positive, and the DFS
// after a meet must still answer exactly.

// meetOracle lists, for one active subgraph and hop constraint, the
// vertices and edges on a cycle of length in [minLen, k].
type meetOracle struct {
	vertices []bool
	edges    map[digraph.Edge]bool
}

func newMeetOracle(gr digraph.Adjacency, k, minLen int, active []bool) meetOracle {
	o := meetOracle{vertices: make([]bool, gr.NumVertices()), edges: map[digraph.Edge]bool{}}
	NewEnumerator(gr, k, minLen, active).Visit(func(c []VID) bool {
		for i, x := range c {
			o.vertices[x] = true
			o.edges[digraph.Edge{U: x, V: c[(i+1)%len(c)]}] = true
		}
		return true
	})
	return o
}

// checkTaggedMeet queries every vertex and every edge of gr with det, whose
// Filter is on, against the oracles at det's MinLen (want) and at the
// meet's own length bound, max(MinLen, 3) or 2 at MinLen 2 (meet).
func checkTaggedMeet(t *testing.T, det *BlockDetector, gr digraph.Adjacency, want, meet meetOracle) {
	t.Helper()
	n := gr.NumVertices()
	for s := VID(0); int(s) < n; s++ {
		before, pushes := det.Stats.BFSPruned, det.Stats.Pushes
		found := det.HasCycleThrough(s)
		pruned := det.Stats.BFSPruned != before
		if found != want.vertices[s] {
			t.Fatalf("k=%d minLen=%d vertex %d: found=%v, oracle %v", det.k, det.minLen, s, found, want.vertices[s])
		}
		if live := det.startActive(s); live && pruned == meet.vertices[s] {
			t.Fatalf("k=%d minLen=%d vertex %d: pruned=%v, but the oracle at the meet's lengths says %v",
				det.k, det.minLen, s, pruned, meet.vertices[s])
		}
		if det.minLen <= 3 && det.Stats.Pushes != pushes {
			t.Fatalf("k=%d minLen=%d vertex %d: the exact meet ran the DFS", det.k, det.minLen, s)
		}
	}
	for u := VID(0); int(u) < n; u++ {
		for _, v := range gr.Out(u) {
			e := digraph.Edge{U: u, V: v}
			before := det.Stats.BFSPruned
			found := det.HasCycleThroughEdge(u, v)
			if found != want.edges[e] {
				t.Fatalf("k=%d minLen=%d edge %v: found=%v, oracle %v", det.k, det.minLen, e, found, want.edges[e])
			}
			if det.Stats.BFSPruned != before && meet.edges[e] {
				t.Fatalf("k=%d minLen=%d edge %v: pruned an edge on a cycle of the meet's lengths", det.k, det.minLen, e)
			}
			if c := det.FindThroughEdge(u, v); (c != nil) != want.edges[e] {
				t.Fatalf("k=%d minLen=%d edge %v: FindThroughEdge=%v, oracle %v", det.k, det.minLen, e, c, want.edges[e])
			}
		}
	}
}

// meetMinLen is the shortest cycle the tagged meet tests for at a
// detector's MinLen: 2 at MinLen 2, 3 above it.
func meetMinLen(minLen int) int { return min(minLen, 3) }

// checkTaggedMeetAll runs checkTaggedMeet for every MinLen in {2, 3, 4}
// and every k in [MinLen, 8] on the mask and view backends of gr (and on
// mapped, when non-nil, over the same active mask).
func checkTaggedMeetAll(t *testing.T, gr *digraph.Graph, mapped digraph.Adjacency, active []bool) {
	t.Helper()
	view := digraph.NewActiveAdjacency(gr, false)
	for v, live := range active {
		if live {
			view.Activate(VID(v))
		}
	}
	for minLen := 2; minLen <= 4; minLen++ {
		for k := minLen; k <= 8; k++ {
			want := newMeetOracle(gr, k, minLen, active)
			meet := want
			if m := meetMinLen(minLen); m != minLen {
				meet = newMeetOracle(gr, k, m, active)
			}
			dets := []*BlockDetector{
				NewBlockDetector(gr, k, minLen, active),
				NewBlockDetectorView(view, k, minLen, nil),
			}
			if mapped != nil {
				dets = append(dets, NewBlockDetector(mapped, k, minLen, active))
			}
			for _, det := range dets {
				det.Filter = true
				checkTaggedMeet(t, det, gr, want, meet)
			}
		}
	}
}

// TestTaggedMeetMatchesEnumerator: on random graphs with planted 2-cycles,
// self-loops and random masks, the filtered detector's vertex and
// edge-rooted yes/no queries match the Enumerator on the mask, view and
// mapped backends.
func TestTaggedMeetMatchesEnumerator(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 92))
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.IntN(12)
		b := digraph.NewBuilder(n)
		b.KeepSelfLoops = iter%3 == 0
		for i := rng.IntN(3 * n); i > 0; i-- {
			u, v := VID(rng.IntN(n)), VID(rng.IntN(n))
			b.AddEdge(u, v)
			if rng.IntN(3) == 0 {
				b.AddEdge(v, u) // a 2-cycle
			}
		}
		gr := b.Build()
		active := make([]bool, n)
		for v := range active {
			active[v] = iter%2 == 0 || rng.IntN(5) > 0
		}
		t.Run(fmt.Sprintf("iter=%d", iter), func(t *testing.T) {
			var mapped digraph.Adjacency
			if iter%4 == 0 {
				mapped = openMapped(t, gr)
			}
			checkTaggedMeetAll(t, gr, mapped, active)
		})
	}
}

// TestTaggedMeetTwoCycles pins the case the tagged meet exists for: a
// vertex whose every closed walk within k runs through a 2-cycle partner
// (the paper's Example 2) is pruned at MinLen 3 without a DFS, and a
// cycle that leaves and returns through two different partners is found.
func TestTaggedMeetTwoCycles(t *testing.T) {
	// 0 <-> 1 and 0 <-> 2, 1 -> 3 -> 1: every closed walk through 0
	// returns through the hop it left by.
	star := g(4, 0, 1, 1, 0, 0, 2, 2, 0, 1, 3, 3, 1)
	// Adding 1 -> 2 closes the triangle 0 -> 1 -> 2 -> 0.
	tri := g(4, 0, 1, 1, 0, 0, 2, 2, 0, 1, 3, 3, 1, 1, 2)
	for k := 3; k <= 8; k++ {
		det := NewBlockDetector(star, k, 3, nil)
		det.Filter = true
		if det.HasCycleThrough(0) || det.Stats.BFSPruned != 1 || det.Stats.Pushes != 0 {
			t.Fatalf("star k=%d: a vertex on 2-cycles only was not pruned (stats %+v)", k, det.Stats)
		}
		det = NewBlockDetector(tri, k, 3, nil)
		det.Filter = true
		if !det.HasCycleThrough(0) || det.Stats.Pushes != 0 || det.Stats.CyclesFound != 1 {
			t.Fatalf("tri k=%d: the triangle was not met (stats %+v)", k, det.Stats)
		}
		if c := det.FindFrom(0); len(c) != 3 {
			t.Fatalf("tri k=%d: FindFrom = %v, want the triangle", k, c)
		}
	}
}

// FuzzTaggedMeet decodes a small graph, a mask and self-loops from the
// input and checks the filtered detector against the Enumerator on the
// mask and view backends, as TestTaggedMeetMatchesEnumerator does.
func FuzzTaggedMeet(f *testing.F) {
	f.Add([]byte{4, 0xff, 0, 1, 1, 0, 0, 2, 2, 0, 1, 2})
	f.Add([]byte{6, 0xef, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 2, 1, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%10
		b := digraph.NewBuilder(n)
		b.KeepSelfLoops = true
		edges := data[2:]
		for i := 0; i+1 < len(edges) && i < 80; i += 2 {
			b.AddEdge(VID(int(edges[i])%n), VID(int(edges[i+1])%n))
		}
		gr := b.Build()
		active := make([]bool, n)
		for v := range active {
			active[v] = data[1]>>(v%8)&1 == 1 || v >= 8
		}
		checkTaggedMeetAll(t, gr, nil, active)
	})
}
