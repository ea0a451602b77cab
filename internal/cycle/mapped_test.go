package cycle

import (
	"math/rand/v2"
	"path/filepath"
	"testing"

	"tdb/internal/digraph"
)

// openMapped round-trips g through the TDBCSR1 format so the detectors and
// filters below run against the mapped backend instead of the in-memory
// CSR — same Adjacency seam the solvers use in production.
func openMapped(t *testing.T, g *digraph.Graph) *digraph.MappedGraph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.tdbcsr")
	if err := digraph.WriteMapped(path, g); err != nil {
		t.Fatal(err)
	}
	mg, err := digraph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mg.Close() })
	return mg
}

// TestDetectorsOnMappedBackend asserts the block detector and the scalar
// BFS filter answer identically over the mapped backend and the in-memory
// CSR, per vertex.
func TestDetectorsOnMappedBackend(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	const n, k = 200, 5
	b := digraph.NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(digraph.VID(rng.IntN(n)), digraph.VID(rng.IntN(n)))
	}
	g := b.Build()
	mg := openMapped(t, g)

	memDet := NewBlockDetector(g, k, DefaultMinLen, nil)
	mapDet := NewBlockDetector(mg, k, DefaultMinLen, nil)
	memFil := NewBFSFilter(g, k, nil)
	mapFil := NewBFSFilter(mg, k, nil)
	for v := 0; v < n; v++ {
		id := digraph.VID(v)
		if memDet.HasCycleThrough(id) != mapDet.HasCycleThrough(id) {
			t.Fatalf("block detector disagrees across backends at %d", v)
		}
		if memFil.CanPrune(id) != mapFil.CanPrune(id) {
			t.Fatalf("BFS filter disagrees across backends at %d", v)
		}
	}
}
