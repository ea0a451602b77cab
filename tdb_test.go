package tdb

import (
	"context"
	"path/filepath"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g := b.Build()

	res, err := Solve(context.Background(), g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cover) != 1 {
		t.Fatalf("cover = %v, want one vertex", res.Cover)
	}
	rep := Verify(g, 5, 3, res.Cover, true)
	if !rep.Valid || !rep.Minimal {
		t.Fatalf("verify failed: %+v", rep)
	}
}

func TestCoverWithAllAlgorithms(t *testing.T) {
	g := GenPowerLaw(300, 1800, 2.2, 0.3, 7)
	for _, algo := range []Algorithm{BUR, BURPlus, TDB, TDBPlus, TDBPlusPlus, DARCDV} {
		res, err := Solve(context.Background(), g, 4, WithAlgorithm(algo), WithOrder(OrderDegreeAsc))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		rep := Verify(g, 4, 3, res.Cover, false)
		if !rep.Valid {
			t.Fatalf("%v: invalid cover", algo)
		}
	}
}

func TestCoverAllCycles(t *testing.T) {
	// A 9-ring has only one (long) cycle.
	b := NewBuilder(9)
	for v := VID(0); v < 9; v++ {
		b.AddEdge(v, (v+1)%9)
	}
	g := b.Build()
	res, err := Solve(context.Background(), g, 0, WithUnconstrained())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cover) != 1 {
		t.Fatalf("cover = %v, want one vertex", res.Cover)
	}
}

func TestFindCycleAndHas(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}})
	if c := FindCycle(g, 5, 0); len(c) != 3 {
		t.Fatalf("FindCycle = %v", c)
	}
	if c := FindCycle(g, 5, 3); c != nil {
		t.Fatalf("vertex 3 is on no cycle, got %v", c)
	}
	if !HasHopConstrainedCycle(g, 5) {
		t.Fatal("graph has a triangle")
	}
	dag := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if HasHopConstrainedCycle(dag, 5) {
		t.Fatal("DAG has no cycle")
	}
}

func TestEnumerateCycles(t *testing.T) {
	g := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	n := 0
	EnumerateCycles(g, 5, func(c []VID) bool {
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("enumerated %d cycles, want 1", n)
	}
}

func TestGraphIORoundTrip(t *testing.T) {
	g := GenErdosRenyi(50, 200, 3)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip lost edges")
	}
}

func TestDatasetsFacade(t *testing.T) {
	if len(Datasets()) != 16 {
		t.Fatal("want 16 datasets")
	}
	d, ok := DatasetByName("GNU")
	if !ok {
		t.Fatal("GNU missing")
	}
	g := d.Generate(0.01)
	if g.NumVertices() == 0 {
		t.Fatal("empty dataset graph")
	}
}

func TestGenFacades(t *testing.T) {
	if g := GenSmallWorld(50, 2, 0.3, 1); g.NumVertices() != 50 {
		t.Fatal("small world facade broken")
	}
	p := GenPlantedCycles(60, 3, 3, 4, 50, 2)
	if len(p.Cycles) != 3 {
		t.Fatal("planted facade broken")
	}
}
