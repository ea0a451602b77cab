package tdb

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// labeledTriangle builds a labeled triangle a->b->c->a plus a pendant d.
func labeledTriangle() *LabeledGraph[string] {
	b := NewLabeledBuilder[string]()
	b.AddEdge("a", "b")
	b.AddEdge("b", "c")
	b.AddEdge("c", "a")
	b.AddEdge("c", "d")
	return b.Build()
}

// TestLabeledMaintainerInternLinear: a stream that interns one new label
// per insert must grow the maintainer's working state geometrically, not
// rebuild n-sized detector state on every insert. Building a 20k-label path
// that way allocated about 2.5 GB; amortized growth needs a few MB. The
// last insert closes a triangle, so the detector must still answer over
// the grown graph.
func TestLabeledMaintainerInternLinear(t *testing.T) {
	const n = 20000
	lm := NewLabeledMaintainer[int](5, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, added := lm.InsertEdge(i, i+1); added {
			t.Fatalf("insert %d: cover grew on a path", i)
		}
	}
	runtime.ReadMemStats(&after)
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<20)
	t.Logf("%d-label path: %d KB allocated", n, got>>10)
	if got > limit {
		t.Fatalf("interning a %d-label path allocated %d MB, want <= %d MB", n, got>>20, limit>>20)
	}
	if _, added := lm.InsertEdge(n, n-2); !added {
		t.Fatal("closing a triangle did not grow the cover")
	}
}

// TestLabeledBuildAndLookup: interning assigns dense VIDs, lookups and
// labels round-trip, and isolated vertices can be registered.
func TestLabeledBuildAndLookup(t *testing.T) {
	b := NewLabeledBuilder[string]()
	if v := b.Intern("x"); v != 0 {
		t.Fatalf("first label got VID %d", v)
	}
	if v := b.Intern("x"); v != 0 {
		t.Fatalf("re-interning moved the label to %d", v)
	}
	b.AddEdge("x", "y")
	b.Intern("isolated")
	g := b.Build()
	if g.NumVertices() != 3 {
		t.Fatalf("n = %d, want 3", g.NumVertices())
	}
	for _, label := range []string{"x", "y", "isolated"} {
		v, ok := g.Lookup(label)
		if !ok {
			t.Fatalf("label %q lost", label)
		}
		if g.Label(v) != label {
			t.Fatalf("Label(Lookup(%q)) = %q", label, g.Label(v))
		}
	}
	if _, ok := g.Lookup("nope"); ok {
		t.Fatal("unknown label resolved")
	}
}

// TestLabeledSolveRoundTrip: a labeled solve must agree exactly with the
// dense solve on the underlying graph, label for label, and the translated
// cover must verify against the dense graph.
func TestLabeledSolveRoundTrip(t *testing.T) {
	b := NewLabeledBuilder[string]()
	raw := GenPowerLaw(300, 1500, 2.2, 0.3, 31)
	name := func(v VID) string { return fmt.Sprintf("acct-%04d", v) }
	for i := 0; i < raw.NumVertices(); i++ {
		b.Intern(name(VID(i)))
	}
	for _, e := range raw.Edges() {
		b.AddEdge(name(e.U), name(e.V))
	}
	lg := b.Build()

	dense, err := Solve(nil, lg.Graph(), 5, WithOrder(OrderDegreeAsc))
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := lg.Solve(context.Background(), 5, WithOrder(OrderDegreeAsc))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(labeled.Raw.Cover, dense.Cover) {
		t.Fatalf("labeled raw cover %v != dense cover %v", labeled.Raw.Cover, dense.Cover)
	}
	if len(labeled.Cover) != len(dense.Cover) {
		t.Fatalf("cover lengths differ: %d vs %d", len(labeled.Cover), len(dense.Cover))
	}
	back := make([]VID, len(labeled.Cover))
	for i, label := range labeled.Cover {
		v, ok := lg.Lookup(label)
		if !ok {
			t.Fatalf("cover label %q unknown", label)
		}
		back[i] = v
	}
	if !slices.Equal(back, dense.Cover) {
		t.Fatal("labels do not translate back to the dense cover")
	}
	if rep := Verify(lg.Graph(), 5, 3, back, true); !rep.Valid || !rep.Minimal {
		t.Fatalf("translated cover failed verification: %+v", rep)
	}
}

// TestLabeledEdgeCover: the edge-transversal variant translates to labeled
// edges.
func TestLabeledEdgeCover(t *testing.T) {
	lg := labeledTriangle()
	r, err := lg.Solve(nil, 5, WithEdgeCover())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Edges) != 1 {
		t.Fatalf("edge transversal %v, want one edge", r.Edges)
	}
	e := r.Edges[0]
	u, okU := lg.Lookup(e.U)
	v, okV := lg.Lookup(e.V)
	if !okU || !okV {
		t.Fatalf("edge %v carries unknown labels", e)
	}
	if !slices.Contains(lg.Graph().Out(u), v) {
		t.Fatalf("edge %v is not an edge of the graph", e)
	}
}

// TestLabeledCyclesAndWeights: FindCycle and EnumerateCycles speak labels;
// Weights steers expensive labels out of the cover.
func TestLabeledCyclesAndWeights(t *testing.T) {
	lg := labeledTriangle()
	if c := lg.FindCycle(5, "a"); len(c) != 3 {
		t.Fatalf("FindCycle = %v", c)
	}
	if c := lg.FindCycle(5, "d"); c != nil {
		t.Fatalf("pendant vertex on a cycle? %v", c)
	}
	if c := lg.FindCycle(5, "unknown"); c != nil {
		t.Fatalf("unknown label found a cycle: %v", c)
	}
	count := 0
	lg.EnumerateCycles(5, func(c []string) bool {
		count++
		if len(c) != 3 {
			t.Fatalf("cycle %v", c)
		}
		return true
	})
	if count != 1 {
		t.Fatalf("enumerated %d cycles, want 1", count)
	}

	w := lg.Weights(map[string]float64{"a": 100, "b": 100}, 1)
	res, err := lg.Solve(nil, 5, WithWeights(w), WithOrder(OrderWeighted))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cover) != 1 || res.Cover[0] != "c" {
		t.Fatalf("cover %v should pick the cheap vertex c", res.Cover)
	}
}

// TestLabeledMaintainerFlow: external IDs round-trip through the full
// dynamic flow — seed from a solve, stream insertions (including labels
// never seen at build time), delete, reminimize — with the cover valid at
// every checkpoint.
func TestLabeledMaintainerFlow(t *testing.T) {
	b := NewLabeledBuilder[string]()
	raw := GenPowerLaw(200, 1200, 2.2, 0.3, 41)
	name := func(i int) string { return fmt.Sprintf("n%03d", i) }
	for i := 0; i < raw.NumVertices(); i++ {
		b.Intern(name(i))
	}
	for _, e := range raw.Edges() {
		b.AddEdge(name(int(e.U)), name(int(e.V)))
	}
	lg := b.Build()
	res, err := lg.Solve(nil, 4, nil)
	if err != nil {
		t.Fatal(err)
	}

	m, err := lg.Maintainer(4, 3, res.Cover)
	if err != nil {
		t.Fatal(err)
	}
	if m.CoverSize() != len(res.Cover) {
		t.Fatalf("seeded cover size %d != %d", m.CoverSize(), len(res.Cover))
	}
	for _, label := range res.Cover {
		if !m.Covered(label) {
			t.Fatalf("seeded cover lost %q", label)
		}
	}

	// Churn, including labels outside the original vertex set.
	for i := 0; i < 300; i++ {
		u := name(i % 250) // 200..249 are brand new
		v := name((i*7 + 1) % 250)
		if u != v {
			m.InsertEdge(u, v)
		}
	}
	if m.NumVertices() < 201 {
		t.Fatalf("stream labels were not interned (n=%d)", m.NumVertices())
	}
	if rep := m.Verify(false); !rep.Valid {
		t.Fatal("cover invalid after insert churn")
	}

	// A triangle of brand-new labels must force a cover addition.
	m2 := NewLabeledMaintainer[string](5, 3)
	if _, added := m2.InsertEdge("p", "q"); added {
		t.Fatal("no cycle yet")
	}
	if _, added := m2.InsertEdge("q", "r"); added {
		t.Fatal("no cycle yet")
	}
	label, added := m2.InsertEdge("r", "p")
	if !added {
		t.Fatal("triangle close must cover")
	}
	if label != "p" && label != "q" && label != "r" {
		t.Fatalf("cover label %q is not a triangle vertex", label)
	}
	if !m2.Covered(label) || m2.CoverSize() != 1 {
		t.Fatal("cover bookkeeping broken")
	}

	// Deletions keep validity; Reminimize sheds the now-redundant entry.
	if !m2.DeleteEdge("r", "p") {
		t.Fatal("edge existed")
	}
	if m2.DeleteEdge("r", "p") {
		t.Fatal("double delete")
	}
	if m2.DeleteEdge("never", "seen") {
		t.Fatal("unknown labels deleted an edge")
	}
	if shed := m2.Reminimize(); shed != 1 {
		t.Fatalf("shed %d, want 1", shed)
	}
	if rep := m2.Verify(true); !rep.Valid || !rep.Minimal {
		t.Fatalf("final state: %+v", rep)
	}

	// Snapshot round-trips labels.
	snap := m2.Snapshot()
	if snap.NumVertices() != 3 {
		t.Fatalf("snapshot n = %d", snap.NumVertices())
	}
	if _, ok := snap.Lookup("q"); !ok {
		t.Fatal("snapshot lost a label")
	}
}

// TestLabeledApplyBatch: the batched update surface by external IDs —
// insertions intern new labels, deletions of unknown labels are no-ops,
// and the returned additions are labels.
func TestLabeledApplyBatch(t *testing.T) {
	m := NewLabeledMaintainer[string](5, 3)
	added := m.ApplyBatch([]LabeledUpdate[string]{
		{Op: UpdateInsert, U: "p", V: "q"},
		{Op: UpdateInsert, U: "q", V: "r"},
		{Op: UpdateInsert, U: "r", V: "p"},
		{Op: UpdateDelete, U: "never", V: "seen"},
	})
	if len(added) != 1 {
		t.Fatalf("triangle batch added %v, want one label", added)
	}
	if added[0] != "p" && added[0] != "q" && added[0] != "r" {
		t.Fatalf("cover label %q is not a triangle vertex", added[0])
	}
	if m.NumVertices() != 3 || m.NumEdges() != 3 || m.CoverSize() != 1 {
		t.Fatalf("batch state n=%d m=%d cover=%d", m.NumVertices(), m.NumEdges(), m.CoverSize())
	}
	if rep := m.Verify(false); !rep.Valid {
		t.Fatal("cover invalid after batch")
	}
	// Deleting the closing edge in a batch keeps validity; Reminimize
	// sheds the redundant entry.
	if got := m.ApplyBatch([]LabeledUpdate[string]{{Op: UpdateDelete, U: "r", V: "p"}}); got != nil {
		t.Fatalf("delete batch added %v", got)
	}
	if shed := m.Reminimize(); shed != 1 {
		t.Fatalf("shed %d, want 1", shed)
	}
	if rep := m.Verify(true); !rep.Valid || !rep.Minimal {
		t.Fatalf("final state: %+v", rep)
	}
}

// TestLabeledMaintainerRejectsForeignCover: seeding with labels outside the
// graph is an error, not silent misattribution.
func TestLabeledMaintainerRejectsForeignCover(t *testing.T) {
	lg := labeledTriangle()
	if _, err := lg.Maintainer(5, 3, []string{"a", "not-a-vertex"}); err == nil {
		t.Fatal("expected an error for a foreign cover label")
	}
}

// TestLabeledIntTypes: the labeled layer is generic — sparse integer IDs
// (e.g. database keys) work unchanged.
func TestLabeledIntTypes(t *testing.T) {
	b := NewLabeledBuilder[int64]()
	b.AddEdge(1_000_000_007, 42)
	b.AddEdge(42, 987_654_321)
	b.AddEdge(987_654_321, 1_000_000_007)
	lg := b.Build()
	res, err := lg.Solve(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cover) != 1 {
		t.Fatalf("cover %v", res.Cover)
	}
	if _, ok := lg.Lookup(res.Cover[0]); !ok {
		t.Fatal("cover label is not a graph vertex")
	}
}
