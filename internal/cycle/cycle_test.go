package cycle

import (
	"math/rand/v2"
	"testing"

	"tdb/internal/digraph"
)

func g(n int, pairs ...VID) *digraph.Graph {
	b := digraph.NewBuilder(n)
	for i := 0; i+1 < len(pairs); i += 2 {
		b.AddEdge(pairs[i], pairs[i+1])
	}
	return b.Build()
}

// hasCycleThroughOracle answers membership by full enumeration.
func hasCycleThroughOracle(gr *digraph.Graph, k, minLen int, active []bool, s VID) bool {
	found := false
	NewEnumerator(gr, k, minLen, active).Visit(func(c []VID) bool {
		for _, v := range c {
			if v == s {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkCycle validates a returned cycle: starts at s, simple, edges exist,
// length within [minLen, k], all vertices active.
func checkCycle(t *testing.T, gr *digraph.Graph, k, minLen int, active []bool, s VID, c []VID) {
	t.Helper()
	if c[0] != s {
		t.Fatalf("cycle %v does not start at %d", c, s)
	}
	if len(c) < minLen || len(c) > k {
		t.Fatalf("cycle %v length %d outside [%d,%d]", c, len(c), minLen, k)
	}
	seen := map[VID]bool{}
	for i, v := range c {
		if seen[v] {
			t.Fatalf("cycle %v repeats vertex %d", c, v)
		}
		seen[v] = true
		if active != nil && !active[v] {
			t.Fatalf("cycle %v uses inactive vertex %d", c, v)
		}
		next := c[(i+1)%len(c)]
		if !gr.HasEdge(v, next) {
			t.Fatalf("cycle %v uses missing edge %d->%d", c, v, next)
		}
	}
}

func TestTriangle(t *testing.T) {
	gr := g(3, 0, 1, 1, 2, 2, 0)
	for _, k := range []int{3, 4, 7} {
		pd := NewPlainDetector(gr, k, 3, nil)
		bd := NewBlockDetector(gr, k, 3, nil)
		for s := VID(0); s < 3; s++ {
			if c := pd.FindFrom(s); c == nil {
				t.Fatalf("plain k=%d: no cycle through %d", k, s)
			} else {
				checkCycle(t, gr, k, 3, nil, s, c)
			}
			if c := bd.FindFrom(s); c == nil {
				t.Fatalf("block k=%d: no cycle through %d", k, s)
			} else {
				checkCycle(t, gr, k, 3, nil, s, c)
			}
		}
	}
}

func TestTwoCycleExcludedByDefault(t *testing.T) {
	gr := g(2, 0, 1, 1, 0)
	pd := NewPlainDetector(gr, 5, 3, nil)
	bd := NewBlockDetector(gr, 5, 3, nil)
	for s := VID(0); s < 2; s++ {
		if pd.FindFrom(s) != nil || bd.FindFrom(s) != nil {
			t.Fatalf("2-cycle must be rejected with minLen=3")
		}
	}
	// With minLen=2 it is a cycle.
	pd2 := NewPlainDetector(gr, 5, 2, nil)
	bd2 := NewBlockDetector(gr, 5, 2, nil)
	for s := VID(0); s < 2; s++ {
		if c := pd2.FindFrom(s); c == nil {
			t.Fatal("plain minLen=2 missed the 2-cycle")
		} else {
			checkCycle(t, gr, 5, 2, nil, s, c)
		}
		if c := bd2.FindFrom(s); c == nil {
			t.Fatal("block minLen=2 missed the 2-cycle")
		} else {
			checkCycle(t, gr, 5, 2, nil, s, c)
		}
	}
}

// TestUnblockRepair builds the exact situation the Unblock call exists for:
// the DFS first walks s->u, rejects the 2-cycle u->s, and must not let the
// pessimistic block on u suppress the real 3-cycle s->a->u->s.
func TestUnblockRepair(t *testing.T) {
	// s=0, u=1, a=2. Out(0) = [1, 2], so u is explored first.
	gr := g(3, 0, 1, 1, 0, 0, 2, 2, 1)
	bd := NewBlockDetector(gr, 3, 3, nil)
	c := bd.FindFrom(0)
	if c == nil {
		t.Fatal("block detector missed 3-cycle after 2-cycle rejection (Unblock broken)")
	}
	checkCycle(t, gr, 3, 3, nil, 0, c)
	if bd.Stats.Unblocks == 0 {
		t.Fatal("expected at least one Unblock call in this scenario")
	}
}

func TestHopConstraintBoundary(t *testing.T) {
	// Single directed 5-cycle: detectable iff k >= 5.
	gr := g(5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0)
	for k := 3; k <= 7; k++ {
		want := k >= 5
		pd := NewPlainDetector(gr, k, 3, nil)
		bd := NewBlockDetector(gr, k, 3, nil)
		for s := VID(0); s < 5; s++ {
			if got := pd.HasCycleThrough(s); got != want {
				t.Fatalf("plain k=%d s=%d: got %v, want %v", k, s, got, want)
			}
			if got := bd.HasCycleThrough(s); got != want {
				t.Fatalf("block k=%d s=%d: got %v, want %v", k, s, got, want)
			}
		}
	}
}

// Figure 4 of the paper: graphs that a naive colored BFS cannot tell apart.
// Both detectors must answer exactly.
func TestPaperFigure4(t *testing.T) {
	// (a): a->b->d->c->a plus a->c? The paper draws a,b,c,d with a 4-cycle
	// present; (b) shares the BFS signature but has no cycle through a.
	ga := g(4, 0, 1, 1, 3, 3, 2, 2, 0) // a->b->d->c->a: 4-cycle through a
	gb := g(4, 0, 1, 0, 2, 1, 3, 3, 2) // a->b->d->c and a->c: no cycle
	for _, k := range []int{4, 5} {
		if !NewBlockDetector(ga, k, 3, nil).HasCycleThrough(0) {
			t.Fatal("graph (a): cycle through a missed")
		}
		if NewBlockDetector(gb, k, 3, nil).HasCycleThrough(0) {
			t.Fatal("graph (b): spurious cycle through a")
		}
	}
}

func TestActiveMask(t *testing.T) {
	gr := g(3, 0, 1, 1, 2, 2, 0)
	active := []bool{true, true, true}
	bd := NewBlockDetector(gr, 5, 3, active)
	pd := NewPlainDetector(gr, 5, 3, active)
	if !bd.HasCycleThrough(0) || !pd.HasCycleThrough(0) {
		t.Fatal("cycle missed with all-active mask")
	}
	active[1] = false // break the triangle
	if bd.HasCycleThrough(0) || pd.HasCycleThrough(0) {
		t.Fatal("detectors ignored deactivated vertex")
	}
	if bd.HasCycleThrough(1) || pd.HasCycleThrough(1) {
		t.Fatal("query on inactive start vertex must fail")
	}
	active[1] = true
	if !bd.HasCycleThrough(0) || !pd.HasCycleThrough(0) {
		t.Fatal("detectors must see reactivated vertex")
	}
}

func randomTestGraph(rng *rand.Rand, n, m int) *digraph.Graph {
	b := digraph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
	}
	return b.Build()
}

// The central equivalence property: plain DFS, block DFS, and the
// enumeration oracle agree on "is s on some constrained cycle", for random
// graphs, all k in [minLen,9] (seed depths D = 1..4), both minLen settings,
// with and without masks.
func TestDetectorEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 202))
	for iter := 0; iter < 120; iter++ {
		n := 2 + rng.IntN(14)
		gr := randomTestGraph(rng, n, rng.IntN(3*n))
		var active []bool
		if iter%3 == 0 {
			active = make([]bool, n)
			for i := range active {
				active[i] = rng.IntN(4) > 0
			}
		}
		for _, minLen := range []int{2, 3} {
			for k := minLen; k <= 9; k++ {
				pd := NewPlainDetector(gr, k, minLen, active)
				bd := NewBlockDetector(gr, k, minLen, active)
				for s := VID(0); int(s) < n; s++ {
					want := false
					if active == nil || active[s] {
						want = hasCycleThroughOracle(gr, k, minLen, active, s)
					}
					pc := pd.FindFrom(s)
					bc := bd.FindFrom(s)
					if (pc != nil) != want {
						t.Fatalf("iter=%d k=%d minLen=%d s=%d: plain=%v want=%v\ngraph=%v active=%v",
							iter, k, minLen, s, pc != nil, want, gr.Edges(), active)
					}
					if (bc != nil) != want {
						t.Fatalf("iter=%d k=%d minLen=%d s=%d: block=%v want=%v\ngraph=%v active=%v",
							iter, k, minLen, s, bc != nil, want, gr.Edges(), active)
					}
					if pc != nil {
						checkCycle(t, gr, k, minLen, active, s, pc)
					}
					if bc != nil {
						checkCycle(t, gr, k, minLen, active, s, bc)
					}
				}
			}
		}
	}
}

// The block detector must stay correct across interleaved mask mutations,
// exactly the access pattern of the top-down cover.
func TestBlockDetectorIncrementalMask(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for iter := 0; iter < 40; iter++ {
		n := 3 + rng.IntN(12)
		gr := randomTestGraph(rng, n, rng.IntN(4*n))
		k := 3 + rng.IntN(4)
		active := make([]bool, n)
		bd := NewBlockDetector(gr, k, 3, active)
		for step := 0; step < n; step++ {
			v := VID(rng.IntN(n))
			active[v] = !active[v]
			s := VID(rng.IntN(n))
			want := active[s] && hasCycleThroughOracle(gr, k, 3, active, s)
			if got := bd.HasCycleThrough(s); got != want {
				t.Fatalf("iter=%d step=%d s=%d: got %v want %v", iter, step, s, got, want)
			}
		}
	}
}

// TestBlockDetectorStress is a wide randomized sweep (the class of bug it
// guards against — stale barrier bounds after stack pops — only shows up on
// specific adjacency orders, so volume matters).
func TestBlockDetectorStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	rng := rand.New(rand.NewPCG(404, 505))
	for iter := 0; iter < 900; iter++ {
		n := 3 + rng.IntN(16)
		// Mix sparse and dense regimes.
		m := rng.IntN(2 + n*n/2)
		gr := randomTestGraph(rng, n, m)
		k := 3 + rng.IntN(6)
		bd := NewBlockDetector(gr, k, 3, nil)
		for s := VID(0); int(s) < n; s++ {
			want := hasCycleThroughOracle(gr, k, 3, nil, s)
			if got := bd.HasCycleThrough(s); got != want {
				t.Fatalf("iter=%d k=%d s=%d: block=%v want=%v\ngraph=%v",
					iter, k, s, got, want, gr.Edges())
			}
		}
	}
}

func TestEnumeratorKnownCounts(t *testing.T) {
	// Triangle with all 6 edges (complete digraph K3): cycles of length 3
	// are the two directed triangles; of length 2, three 2-cycles.
	gr := g(3, 0, 1, 1, 0, 1, 2, 2, 1, 0, 2, 2, 0)
	if got := NewEnumerator(gr, 3, 3, nil).Count(); got != 2 {
		t.Fatalf("triangles = %d, want 2", got)
	}
	if got := NewEnumerator(gr, 3, 2, nil).Count(); got != 5 {
		t.Fatalf("cycles len>=2 = %d, want 5", got)
	}
	// Directed n-cycle has exactly one cycle.
	gr2 := g(6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0)
	if got := NewEnumerator(gr2, 6, 3, nil).Count(); got != 1 {
		t.Fatalf("6-ring cycles = %d, want 1", got)
	}
	if got := NewEnumerator(gr2, 5, 3, nil).Count(); got != 0 {
		t.Fatalf("6-ring with k=5 cycles = %d, want 0", got)
	}
}

func TestEnumeratorNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 88))
	for iter := 0; iter < 40; iter++ {
		n := 2 + rng.IntN(10)
		gr := randomTestGraph(rng, n, rng.IntN(3*n))
		seen := map[string]bool{}
		NewEnumerator(gr, 6, 3, nil).Visit(func(c []VID) bool {
			// Canonical form: rotation starting at min vertex (the
			// enumerator already does this), so byte-encode directly.
			key := ""
			for _, v := range c {
				key += string(rune(v)) + ","
			}
			if seen[key] {
				t.Fatalf("iter %d: duplicate cycle %v", iter, c)
			}
			seen[key] = true
			// Cycle must start at its minimum vertex.
			for _, v := range c[1:] {
				if v < c[0] {
					t.Fatalf("iter %d: cycle %v not rooted at min vertex", iter, c)
				}
			}
			return true
		})
	}
}

func TestEnumeratorEarlyStop(t *testing.T) {
	gr := g(3, 0, 1, 1, 2, 2, 0)
	e := NewEnumerator(gr, 3, 3, nil)
	calls := 0
	e.Visit(func([]VID) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("Visit made %d calls after stop, want 1", calls)
	}
	if !e.HasAny() {
		t.Fatal("HasAny should be true")
	}
}

func TestUnconstrainedHelper(t *testing.T) {
	gr := g(10, 0, 1, 1, 0)
	if got := Unconstrained(gr); got != 10 {
		t.Fatalf("Unconstrained = %d, want 10", got)
	}
	tiny := g(2, 0, 1)
	if got := Unconstrained(tiny); got != 3 {
		t.Fatalf("Unconstrained(tiny) = %d, want 3 (minimum legal k)", got)
	}
}

// The unconstrained setting (k = n) must find long cycles the constrained
// detectors reject.
func TestUnconstrainedFindsLongCycles(t *testing.T) {
	n := 50
	b := digraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(VID(v), VID((v+1)%n))
	}
	gr := b.Build()
	if NewBlockDetector(gr, 7, 3, nil).HasCycleThrough(0) {
		t.Fatal("k=7 should miss the 50-cycle")
	}
	if !NewBlockDetector(gr, Unconstrained(gr), 3, nil).HasCycleThrough(0) {
		t.Fatal("unconstrained detector missed the 50-cycle")
	}
}

func TestValidatePanics(t *testing.T) {
	gr := g(3, 0, 1)
	cases := []func(){
		func() { NewPlainDetector(gr, 2, 3, nil) },                     // k < minLen
		func() { NewPlainDetector(gr, 5, 1, nil) },                     // minLen < 2
		func() { NewPlainDetector(gr, 5, 3, []bool{true}) },            // mask length
		func() { NewBlockDetector(gr, 1, 2, nil) },                     // k < minLen
		func() { HasHopConstrainedCycle(gr, 5, 3, []bool{true}, nil) }, // candidates length
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// A hostile instance for the plain detector: a dense DAG reachable from
// the start vertex with no way back, forcing exhaustive exploration. The
// in-search cancellation hook must abort it.
func TestPlainDetectorAbortsMidSearch(t *testing.T) {
	n := 60
	b := digraph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(VID(u), VID(v)) // complete DAG: no cycles at all
		}
	}
	gr := b.Build()
	d := NewPlainDetector(gr, 12, 3, nil)
	calls := 0
	d.Cancelled = func() bool {
		calls++
		return true // abort at the first poll
	}
	if c := d.FindFrom(0); c != nil {
		t.Fatalf("found cycle %v in a DAG", c)
	}
	if !d.WasAborted() {
		t.Fatal("expected the query to abort")
	}
	if calls == 0 {
		t.Fatal("Cancelled never polled")
	}
	// The abort must cap the work: well under one full exploration.
	if d.Stats.EdgeScans > 3*4096 {
		t.Fatalf("aborted query scanned %d edges", d.Stats.EdgeScans)
	}
	// A repeated query aborts again (the hook still fires)...
	if d.FindFrom(0) != nil || !d.WasAborted() {
		t.Fatal("second aborted query misbehaved")
	}
	// ...and the abort flag is per-query state: a detector whose hook
	// never fires reports no abort. (Re-querying THIS graph without the
	// hook would be the exponential blow-up the hook exists to stop.)
	tri := g(3, 0, 1, 1, 2, 2, 0)
	d2 := NewPlainDetector(tri, 5, 3, nil)
	d2.Cancelled = func() bool { return false }
	if d2.FindFrom(0) == nil || d2.WasAborted() {
		t.Fatal("non-firing hook must not abort")
	}
}

func TestStatsAccumulate(t *testing.T) {
	gr := g(3, 0, 1, 1, 2, 2, 0)
	bd := NewBlockDetector(gr, 5, 3, nil)
	bd.FindFrom(0)
	bd.FindFrom(1)
	if bd.Stats.Queries != 2 || bd.Stats.CyclesFound != 2 || bd.Stats.Pushes == 0 {
		t.Fatalf("unexpected stats: %+v", bd.Stats)
	}
	var total Stats
	total.Add(bd.Stats)
	total.Add(bd.Stats)
	if total.Queries != 4 {
		t.Fatalf("Add broken: %+v", total)
	}
}
