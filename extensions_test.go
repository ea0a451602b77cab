package tdb

import (
	"context"
	"testing"
)

func TestCoverEdgesFacade(t *testing.T) {
	g := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	r, err := Solve(context.Background(), g, 5, WithEdgeCover())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Edges) != 1 {
		t.Fatalf("edge cover %v", r.Edges)
	}
	if r.Cover != nil {
		t.Fatalf("edge solve must not fill Cover, got %v", r.Cover)
	}
	// Removing the edge breaks the triangle.
	b := NewBuilder(3)
	for _, e := range g.Edges() {
		if e != r.Edges[0] {
			b.AddEdge(e.U, e.V)
		}
	}
	if HasHopConstrainedCycle(b.Build(), 5) {
		t.Fatal("cycle survives")
	}
}

func TestCoverParallelFacade(t *testing.T) {
	g := GenPlantedCycles(600, 20, 3, 5, 300, 9).Graph
	r, err := Solve(context.Background(), g, 5, WithOrder(OrderDegreeAsc),
		WithStrategy(StrategyParallelSCC), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	rep := Verify(g, 5, 3, r.Cover, true)
	if !rep.Valid || !rep.Minimal {
		t.Fatalf("parallel cover failed verification: %+v", rep)
	}
	if len(r.Cover) < 20 {
		t.Fatalf("cover %d < 20 planted cycles", len(r.Cover))
	}
}

func TestWeightedFacade(t *testing.T) {
	g := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	res, err := Solve(context.Background(), g, 5,
		WithOrder(OrderWeighted), WithWeights([]float64{100, 1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cover) != 1 || res.Cover[0] == 0 {
		t.Fatalf("cover %v should avoid the expensive vertex", res.Cover)
	}
}

func TestProfileGraphFacade(t *testing.T) {
	g := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	p := ProfileGraph(g, 4)
	if p.N != 3 || p.CyclesByLength[3] != 1 {
		t.Fatalf("profile wrong: %+v", p)
	}
	if p2 := ProfileGraph(g, 0); p2.CyclesByLength != nil {
		t.Fatal("cycle census must be off for cycleK=0")
	}
}

func TestMaintainerFacade(t *testing.T) {
	m := NewMaintainer(4, 5, 3)
	m.InsertEdge(0, 1)
	m.InsertEdge(1, 2)
	if v := m.InsertEdge(2, 0); v == -1 {
		t.Fatal("triangle close must cover")
	}
	rep := Verify(m.Snapshot(), 5, 3, m.Cover(), false)
	if !rep.Valid {
		t.Fatal("maintained cover invalid")
	}

	// Seed from a static solve, then churn.
	g := GenPowerLaw(200, 1200, 2.2, 0.3, 4)
	res, err := Solve(context.Background(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MaintainerFromGraph(g, 4, 3, res.Cover)
	if err != nil {
		t.Fatal(err)
	}
	for i := VID(0); i < 100; i++ {
		m2.InsertEdge(i%200, (i*7+1)%200)
	}
	rep2 := Verify(m2.Snapshot(), 4, 3, m2.Cover(), false)
	if !rep2.Valid {
		t.Fatal("maintained cover invalid after churn")
	}

	// A stale cover (vertices beyond the graph) is an error, not a panic.
	if _, err := MaintainerFromGraph(g, 4, 3, []VID{10_000}); err == nil {
		t.Fatal("out-of-range cover must be rejected")
	}

	// The batched surface: churn applied in one batch stays valid.
	m3, err := MaintainerFromGraph(g, 4, 3, res.Cover)
	if err != nil {
		t.Fatal(err)
	}
	ups := make([]Update, 0, 120)
	for i := VID(0); i < 100; i++ {
		ups = append(ups, InsertOp(i%200, (i*7+1)%200))
	}
	for _, e := range g.Edges()[:20] {
		ups = append(ups, DeleteOp(e.U, e.V))
	}
	m3.ApplyBatch(ups)
	if rep := Verify(m3.Snapshot(), 4, 3, m3.Cover(), false); !rep.Valid {
		t.Fatal("batched cover invalid after churn")
	}
}
