package digraph

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refView is the trivially-correct reference: a bool set filtered against
// the immutable adjacency.
type refView struct {
	g      *Graph
	active []bool
}

func (r *refView) activeAdj(vs []VID) []VID {
	out := []VID{}
	for _, w := range vs {
		if r.active[w] {
			out = append(out, w)
		}
	}
	return out
}

func sortedCopy(vs []VID) []VID {
	c := slices.Clone(vs)
	slices.Sort(c)
	return c
}

// checkAgainstRef asserts that the view agrees with the reference on every
// vertex: same active flags, and ActiveOut/ActiveIn equal as sets to the
// filtered immutable adjacency.
func checkAgainstRef(t *testing.T, a *ActiveAdjacency, ref *refView) {
	t.Helper()
	g := ref.g
	count := 0
	for v := 0; v < g.NumVertices(); v++ {
		if ref.active[v] {
			count++
		}
		if a.Active(VID(v)) != ref.active[v] {
			t.Fatalf("Active(%d) = %v, want %v", v, a.Active(VID(v)), ref.active[v])
		}
		wantOut := sortedCopy(ref.activeAdj(g.Out(VID(v))))
		gotOut := sortedCopy(a.ActiveOut(VID(v)))
		if !slices.Equal(gotOut, wantOut) {
			t.Fatalf("ActiveOut(%d) = %v, want %v", v, gotOut, wantOut)
		}
		wantIn := sortedCopy(ref.activeAdj(g.In(VID(v))))
		gotIn := sortedCopy(a.ActiveIn(VID(v)))
		if !slices.Equal(gotIn, wantIn) {
			t.Fatalf("ActiveIn(%d) = %v, want %v", v, gotIn, wantIn)
		}
		if a.ActiveOutDegree(VID(v)) != len(wantOut) || a.ActiveInDegree(VID(v)) != len(wantIn) {
			t.Fatalf("degrees of %d: out %d in %d, want %d %d",
				v, a.ActiveOutDegree(VID(v)), a.ActiveInDegree(VID(v)), len(wantOut), len(wantIn))
		}
	}
	if a.NumActive() != count {
		t.Fatalf("NumActive = %d, want %d", a.NumActive(), count)
	}
}

func TestActiveAdjacencyRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 13))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.IntN(40)
		g := randomGraph(rng, n, rng.IntN(6*n))
		startFull := trial%2 == 0
		a := NewActiveAdjacency(g, startFull)
		ref := &refView{g: g, active: make([]bool, n)}
		for i := range ref.active {
			ref.active[i] = startFull
		}
		checkAgainstRef(t, a, ref)
		for step := 0; step < 120; step++ {
			v := VID(rng.IntN(n))
			if rng.IntN(2) == 0 {
				changed := a.Activate(v)
				if changed == ref.active[v] {
					t.Fatalf("Activate(%d) changed=%v with ref active=%v", v, changed, ref.active[v])
				}
				ref.active[v] = true
			} else {
				changed := a.Deactivate(v)
				if changed != ref.active[v] {
					t.Fatalf("Deactivate(%d) changed=%v with ref active=%v", v, changed, ref.active[v])
				}
				ref.active[v] = false
			}
			checkAgainstRef(t, a, ref)
		}
	}
}

// checkEqualsFresh asserts that a lists every row exactly as a freshly
// built all-active view does: identical slices, order included.
func checkEqualsFresh(t *testing.T, a *ActiveAdjacency, g *Graph) {
	t.Helper()
	fresh := NewActiveAdjacency(g, true)
	for v := 0; v < g.NumVertices(); v++ {
		if !slices.Equal(a.ActiveOut(VID(v)), fresh.ActiveOut(VID(v))) ||
			!slices.Equal(a.ActiveIn(VID(v)), fresh.ActiveIn(VID(v))) {
			t.Fatalf("Reset(true): vertex %d differs from a fresh view", v)
		}
	}
	if a.NumActive() != fresh.NumActive() {
		t.Fatalf("Reset(true): NumActive = %d, want %d", a.NumActive(), fresh.NumActive())
	}
}

func TestActiveAdjacencyReset(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	g := randomGraph(rng, 30, 150)
	a := NewActiveAdjacency(g, false)
	ref := &refView{g: g, active: make([]bool, 30)}
	// Scramble the rows, then reset both ways.
	for i := 0; i < 60; i++ {
		v := VID(rng.IntN(30))
		if rng.IntN(2) == 0 {
			a.Activate(v)
		} else {
			a.Deactivate(v)
		}
	}
	a.Reset(true)
	checkEqualsFresh(t, a, g)
	a.Reset(false)
	checkAgainstRef(t, a, ref)
	// The view must remain fully functional after resets.
	for i := 0; i < 60; i++ {
		v := VID(rng.IntN(30))
		a.Activate(v)
		ref.active[v] = true
	}
	checkAgainstRef(t, a, ref)
	for i := 0; i < 20; i++ {
		a.Deactivate(VID(rng.IntN(30)))
	}
	a.Reset(true)
	checkEqualsFresh(t, a, g)
}

// orderModel is the slice-based reference for the view's row order:
// Activate appends to each neighbor's row, Deactivate moves the row's last
// entry into the hole, Reset(true) restores the canonical rows.
type orderModel struct {
	g       *Graph
	active  []bool
	out, in [][]VID
}

func (m *orderModel) reset(allActive bool) {
	for v := range m.active {
		m.active[v] = allActive
		m.out[v], m.in[v] = m.out[v][:0], m.in[v][:0]
		if allActive {
			m.out[v] = append(m.out[v], m.g.Out(VID(v))...)
			m.in[v] = append(m.in[v], m.g.In(VID(v))...)
		}
	}
}

func (m *orderModel) activate(v VID) {
	if m.active[v] {
		return
	}
	m.active[v] = true
	for _, u := range m.g.In(v) {
		m.out[u] = append(m.out[u], v)
	}
	for _, w := range m.g.Out(v) {
		m.in[w] = append(m.in[w], v)
	}
}

func removeMovingLast(row []VID, v VID) []VID {
	i := slices.Index(row, v)
	last := len(row) - 1
	row[i] = row[last]
	return row[:last]
}

func (m *orderModel) deactivate(v VID) {
	if !m.active[v] {
		return
	}
	m.active[v] = false
	for _, u := range m.g.In(v) {
		m.out[u] = removeMovingLast(m.out[u], v)
	}
	for _, w := range m.g.Out(v) {
		m.in[w] = removeMovingLast(m.in[w], v)
	}
}

// The bottom-up covers depend on the exact order of every live row, so the
// view must follow the model entry for entry, not just as a set: random
// sequences mixing top-down undos, arbitrary deactivations and both resets,
// on graphs with self-loops.
func TestActiveAdjacencyRowOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.IntN(40)
		b := NewBuilder(n)
		b.KeepSelfLoops = true
		for i := rng.IntN(6 * n); i > 0; i-- {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		g := b.Build()
		startFull := trial%2 == 0
		a := NewActiveAdjacency(g, startFull)
		m := &orderModel{g: g, active: make([]bool, n), out: make([][]VID, n), in: make([][]VID, n)}
		m.reset(startFull)
		for step := 0; step < 200; step++ {
			v := VID(rng.IntN(n))
			switch r := rng.IntN(20); {
			case r == 0:
				a.Reset(true)
				m.reset(true)
			case r == 1:
				a.Reset(false)
				m.reset(false)
			case r < 12: // top-down: activate, undo half the time
				a.Activate(v)
				m.activate(v)
				if rng.IntN(2) == 0 {
					a.Deactivate(v)
					m.deactivate(v)
				}
			default:
				a.Deactivate(v)
				m.deactivate(v)
			}
			for u := 0; u < n; u++ {
				if a.Active(VID(u)) != m.active[u] {
					t.Fatalf("trial %d step %d: Active(%d) = %v, want %v", trial, step, u, a.Active(VID(u)), m.active[u])
				}
				if got := a.ActiveOut(VID(u)); !slices.Equal(got, m.out[u]) {
					t.Fatalf("trial %d step %d: ActiveOut(%d) = %v, want %v", trial, step, u, got, m.out[u])
				}
				if got := a.ActiveIn(VID(u)); !slices.Equal(got, m.in[u]) {
					t.Fatalf("trial %d step %d: ActiveIn(%d) = %v, want %v", trial, step, u, got, m.in[u])
				}
			}
		}
	}
}

func TestActiveAdjacencySelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.KeepSelfLoops = true
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g := b.Build()
	a := NewActiveAdjacency(g, false)
	ref := &refView{g: g, active: make([]bool, 3)}
	for _, v := range []VID{0, 1, 2, 0, 1} { // re-activation is a no-op
		a.Activate(v)
		ref.active[v] = true
		checkAgainstRef(t, a, ref)
	}
	a.Deactivate(0)
	ref.active[0] = false
	checkAgainstRef(t, a, ref)
}

func TestActiveAdjacencyEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	a := NewActiveAdjacency(g, true)
	if a.NumActive() != 0 || a.Len() != 0 {
		t.Fatalf("empty graph view: NumActive=%d Len=%d", a.NumActive(), a.Len())
	}
}
