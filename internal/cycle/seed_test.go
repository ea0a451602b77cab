package cycle

import (
	"math/rand/v2"
	"slices"
	"testing"

	"tdb/internal/digraph"
)

// Distance seeding only prunes subtrees that cannot close a cycle, and both
// detectors scan neighbors in the same order, so the block detector must
// return the plain DFS's first cycle slice for slice — on the mask path and
// on the view path alike (a view may reorder a row on deactivation, so each
// path is compared with the plain detector over the same representation).
// The bottom-up cover's hit counters rely on this at every MinLen
// WithMinLen accepts.
func TestBlockFindFromMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 32))
	queries := 0
	for iter := 0; iter < 150; iter++ {
		n := 2 + rng.IntN(18)
		gr := randomTestGraph(rng, n, rng.IntN(4*n))
		var active []bool
		view := digraph.NewActiveAdjacency(gr, true)
		if iter%2 == 1 {
			active = make([]bool, n)
			for v := range active {
				if active[v] = rng.IntN(4) > 0; !active[v] {
					view.Deactivate(VID(v))
				}
			}
		}
		for _, minLen := range []int{2, 3, 4, 5} {
			for k := minLen; k <= minLen+5; k++ {
				pd := NewPlainDetector(gr, k, minLen, active)
				bd := NewBlockDetector(gr, k, minLen, active)
				pv := NewPlainDetectorView(view, k, minLen, nil)
				bv := NewBlockDetectorView(view, k, minLen, nil)
				for s := VID(0); int(s) < n; s++ {
					if got, want := bd.FindFrom(s), pd.FindFrom(s); !slices.Equal(got, want) {
						t.Fatalf("iter=%d k=%d minLen=%d s=%d: block mask %v, plain mask %v\ngraph=%v active=%v",
							iter, k, minLen, s, got, want, gr.Edges(), active)
					}
					if got, want := bv.FindFrom(s), pv.FindFrom(s); !slices.Equal(got, want) {
						t.Fatalf("iter=%d k=%d minLen=%d s=%d: block view %v, plain view %v\ngraph=%v active=%v",
							iter, k, minLen, s, got, want, gr.Edges(), active)
					}
					queries++
				}
			}
		}
	}
	if queries == 0 {
		t.Fatal("no queries compared")
	}
}

// checkAgainstOracle runs every start vertex through bd and the
// enumeration oracle.
func checkAgainstOracle(t *testing.T, name string, gr *digraph.Graph, bd *BlockDetector, k, minLen int, active []bool) {
	t.Helper()
	for s := VID(0); int(s) < gr.NumVertices(); s++ {
		want := (active == nil || active[s]) && hasCycleThroughOracle(gr, k, minLen, active, s)
		c := bd.FindFrom(s)
		if (c != nil) != want {
			t.Fatalf("%s: k=%d minLen=%d s=%d: block=%v oracle=%v\ngraph=%v active=%v",
				name, k, minLen, s, c != nil, want, gr.Edges(), active)
		}
		if c != nil {
			checkCycle(t, gr, k, minLen, active, s, c)
		}
	}
}

func TestSeedSourceWithoutLiveInNeighbors(t *testing.T) {
	// 0 reaches a triangle 1->2->3->1 but nothing reaches 0.
	gr := g(4, 0, 1, 1, 2, 2, 3, 3, 1)
	bd := NewBlockDetector(gr, 6, 3, nil)
	if bd.HasCycleThrough(0) {
		t.Fatal("cycle through a vertex with no in-edges")
	}
	if bd.floor != 6 || bd.Stats.Pushes != 1 {
		t.Fatalf("floor=%d pushes=%d, want floor k=6 and only the source pushed",
			bd.floor, bd.Stats.Pushes)
	}
	// Same shape through the mask and the view: 4->0 is the only in-edge
	// of 0, and 4 is inactive.
	gr = g(5, 0, 1, 1, 2, 2, 3, 3, 1, 4, 0, 3, 4)
	active := []bool{true, true, true, true, false}
	view := digraph.NewActiveAdjacency(gr, true)
	view.Deactivate(4)
	for _, bd := range []*BlockDetector{
		NewBlockDetector(gr, 6, 3, active),
		NewBlockDetectorView(view, 6, 3, nil),
	} {
		if bd.HasCycleThrough(0) {
			t.Fatal("cycle through a vertex whose only in-neighbor is inactive")
		}
		if bd.floor != 6 || bd.Stats.Pushes != 1 {
			t.Fatalf("floor=%d pushes=%d, want floor 6 and one push", bd.floor, bd.Stats.Pushes)
		}
		checkAgainstOracle(t, "inactive in-neighbor", gr, bd, 6, 3, active)
	}
}

func TestSeedBallExhaustedBeforeDepth(t *testing.T) {
	// k=9, so D=4. Only 1 reaches 0 (through the rejected 2-cycle), so the
	// ball is {0, 1} at depth 2 and the floor must be k: the long chain
	// 0->2->...->8 can never come back and is pruned at its first vertex.
	gr := g(9, 0, 1, 1, 0, 0, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8)
	bd := NewBlockDetector(gr, 9, 3, nil)
	if bd.HasCycleThrough(0) {
		t.Fatal("spurious cycle")
	}
	if bd.floor != 9 {
		t.Fatalf("floor=%d, want k=9", bd.floor)
	}
	if bd.Stats.Pushes != 2 {
		t.Fatalf("pushes=%d, want 2 (the source and 1)", bd.Stats.Pushes)
	}
	// The ball reaching depth D exactly must use the D+1 floor instead: a
	// directed 9-cycle has a vertex at every backward distance.
	ring := g(9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 0)
	bd = NewBlockDetector(ring, 9, 3, nil)
	if !bd.HasCycleThrough(0) || bd.floor != 5 {
		t.Fatalf("ring: floor=%d, want D+1=5 and the 9-cycle found", bd.floor)
	}
	checkAgainstOracle(t, "ring k=8", ring, NewBlockDetector(ring, 8, 3, nil), 8, 3, nil)
}

func TestSeedRandomEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 16))
	for iter := 0; iter < 80; iter++ {
		n := 3 + rng.IntN(9)
		gr := randomTestGraph(rng, n, rng.IntN(3*n))
		var active []bool
		if iter%2 == 0 {
			active = make([]bool, n)
			for v := range active {
				active[v] = rng.IntN(5) > 0
			}
		}
		for _, minLen := range []int{2, 3} {
			// k=3 seeds a single backward hop (D=1).
			checkAgainstOracle(t, "k=3", gr, NewBlockDetector(gr, 3, minLen, active), 3, minLen, active)
			// Unconstrained k turns the seed into a full backward BFS.
			k := Unconstrained(gr)
			checkAgainstOracle(t, "unconstrained", gr, NewBlockDetector(gr, k, minLen, active), k, minLen, active)
		}
	}
}

// Seeded stamps written just before the uint32 epoch wraps must not leak
// into the queries after it.
func TestSeedEpochWraparound(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 80))
	for iter := 0; iter < 10; iter++ {
		n := 6 + rng.IntN(8)
		gr := randomTestGraph(rng, n, 2*n+rng.IntN(2*n))
		for _, k := range []int{3, 6, 9} {
			bd := NewBlockDetector(gr, k, 3, nil)
			want := make([]bool, n)
			for v := range want {
				want[v] = hasCycleThroughOracle(gr, k, 3, nil, VID(v))
			}
			bd.s.epoch = ^uint32(0) - uint32(n/2)
			for round := 0; round < 3; round++ {
				for v := 0; v < n; v++ {
					if got := bd.HasCycleThrough(VID(v)); got != want[v] {
						t.Fatalf("iter=%d k=%d round=%d v=%d: got %v want %v\ngraph=%v",
							iter, k, round, v, got, want[v], gr.Edges())
					}
				}
			}
			if bd.s.epoch == 0 || bd.s.epoch > uint32(3*n) {
				t.Fatalf("epoch %d did not wrap", bd.s.epoch)
			}
		}
	}
}
