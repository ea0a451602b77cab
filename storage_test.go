package tdb

import (
	"context"
	"path/filepath"
	"slices"
	"testing"
)

// openMappedCopy round-trips g through the TDBCSR1 format and opens it.
func openMappedCopy(t *testing.T, g *Graph) *MappedGraph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.tdbcsr")
	if err := SaveMapped(path, g); err != nil {
		t.Fatalf("SaveMapped: %v", err)
	}
	mg, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	t.Cleanup(func() { mg.Close() })
	return mg
}

// TestMappedCoversBitIdentical is the storage-equivalence property: for
// every graph shape × hop bound × execution strategy, solving against the
// memory-mapped backend must produce the exact cover the in-memory backend
// produces — same vertices, same order. Anything weaker would make storage
// a semantic knob instead of a placement knob.
func TestMappedCoversBitIdentical(t *testing.T) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"erdos-renyi", GenErdosRenyi(200, 800, 11)},
		{"powerlaw", GenPowerLaw(300, 1500, 2.2, 0.25, 12)},
		{"smallworld", GenSmallWorld(150, 3, 0.4, 13)},
		{"planted", GenPlantedCycles(200, 12, 3, 6, 600, 14).Graph},
	}
	strategies := []struct {
		name string
		s    Strategy
	}{
		{"auto", StrategyAuto},
		{"sequential", StrategySequential},
		{"parallel-scc", StrategyParallelSCC},
	}
	ctx := context.Background()
	for _, tg := range graphs {
		mg := openMappedCopy(t, tg.g)
		for _, k := range []int{3, 5} {
			for _, st := range strategies {
				name := tg.name + "/k=" + string(rune('0'+k)) + "/" + st.name
				t.Run(name, func(t *testing.T) {
					mem, err := Solve(ctx, tg.g, k, WithStrategy(st.s))
					if err != nil {
						t.Fatalf("memory solve: %v", err)
					}
					mapped, err := Solve(ctx, nil, k, WithStorage(mg), WithStrategy(st.s))
					if err != nil {
						t.Fatalf("mapped solve: %v", err)
					}
					if !slices.Equal(mem.Cover, mapped.Cover) {
						t.Fatalf("covers diverge:\nmemory: %v\nmapped: %v", mem.Cover, mapped.Cover)
					}
					if mem.Stats.Storage != "memory" {
						t.Errorf("memory solve stamped Storage=%q", mem.Stats.Storage)
					}
					if mapped.Stats.Storage != "mapped" {
						t.Errorf("mapped solve stamped Storage=%q", mapped.Stats.Storage)
					}
					if rep := Verify(mg, k, 3, mapped.Cover, false); !rep.Valid {
						t.Fatalf("mapped cover invalid: surviving cycle %v", rep.Witness)
					}
				})
			}
		}
	}
}

func TestWithStorageSemantics(t *testing.T) {
	g := GenErdosRenyi(100, 400, 21)
	mg := openMappedCopy(t, g)
	ctx := context.Background()

	t.Run("nil-graph-without-storage", func(t *testing.T) {
		if _, err := Solve(ctx, nil, 4); err == nil {
			t.Fatal("Solve(nil) without WithStorage succeeded")
		}
	})
	t.Run("storage-wins-over-graph-arg", func(t *testing.T) {
		empty := GenErdosRenyi(10, 0, 1)
		res, err := Solve(ctx, empty, 4, WithStorage(mg))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Storage != "mapped" {
			t.Fatalf("Storage = %q, want mapped (WithStorage must win)", res.Stats.Storage)
		}
	})
}

func TestNewStorageEngine(t *testing.T) {
	g := GenErdosRenyi(120, 500, 31)
	mg := openMappedCopy(t, g)
	ctx := context.Background()

	eng := NewStorageEngine(mg)
	if eng.Graph() != Storage(mg) {
		t.Fatal("Engine.Graph() does not expose the configured storage")
	}
	want, err := Solve(ctx, g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // repeated solves reuse pooled state
		res, err := eng.Solve(ctx, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Cover, want.Cover) {
			t.Fatalf("engine cover diverges from memory cover on iteration %d", i)
		}
	}

	t.Run("foreign-storage-rejected", func(t *testing.T) {
		other := openMappedCopy(t, GenErdosRenyi(50, 200, 32))
		if _, err := eng.Solve(ctx, 5, WithStorage(other)); err == nil {
			t.Fatal("engine accepted WithStorage naming a different backend")
		}
	})
}
