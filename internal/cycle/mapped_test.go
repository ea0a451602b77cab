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

// TestDetectorsOnMappedBackend asserts the block detector answers
// identically over the mapped backend and the in-memory CSR, per vertex,
// and that with its filter on it prunes exactly where the oracle at its
// MinLen puts a vertex on no cycle — also on a mapped graph that keeps
// self-loops.
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
	for v := 0; v < n; v++ {
		id := digraph.VID(v)
		if memDet.HasCycleThrough(id) != mapDet.HasCycleThrough(id) {
			t.Fatalf("block detector disagrees across backends at %d", v)
		}
	}

	loops := bfSelfLoopGraph(120, 400, 43)
	for name, gr := range map[string]*digraph.Graph{"random": g, "selfloops": loops} {
		mapped := openMapped(t, gr)
		if gr.NumEdges() != mapped.NumEdges() {
			t.Fatalf("%s: mapped graph has %d edges, want %d", name, mapped.NumEdges(), gr.NumEdges())
		}
		for _, fk := range filterKs {
			onCycle := cycleVertices(mapped, fk, filterMinLen(fk), nil)
			memFil := NewBlockDetector(gr, fk, filterMinLen(fk), nil)
			mapFil := NewBlockDetector(mapped, fk, filterMinLen(fk), nil)
			memFil.Filter, mapFil.Filter = true, true
			checkFilterPrunes(t, memFil, allSources(gr.NumVertices()), nil, onCycle)
			checkFilterPrunes(t, mapFil, allSources(gr.NumVertices()), nil, onCycle)
			if memFil.Stats != mapFil.Stats {
				t.Fatalf("%s k=%d: stats differ across backends: memory %+v, mapped %+v", name, fk, memFil.Stats, mapFil.Stats)
			}
		}
	}
}
