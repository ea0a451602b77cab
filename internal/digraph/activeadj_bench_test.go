package digraph_test

import (
	"math/rand/v2"
	"testing"

	"tdb/internal/digraph"
	"tdb/internal/gen"
)

// BenchmarkActiveAdjacency times one pass of each cover family's view
// traffic on a power-law graph: topdown activates every vertex in ID order
// and undoes a seeded 25% at once (the top-down loop keeping a vertex);
// bottomup resets to all-active and deactivates a seeded 25% in random
// order, the case where Deactivate scans rows from the end.
func BenchmarkActiveAdjacency(b *testing.B) {
	const n = 10_000
	g := gen.PowerLaw(n, 150_000, 2.2, 0.3, 1)
	rng := rand.New(rand.NewPCG(2, 2))
	undo := make([]bool, n)
	for v := range undo {
		undo[v] = rng.IntN(4) == 0
	}
	drop := rng.Perm(n)[:n/4]
	a := digraph.NewActiveAdjacency(g, false)
	b.Run("topdown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.Reset(false)
			for v := 0; v < n; v++ {
				a.Activate(digraph.VID(v))
				if undo[v] {
					a.Deactivate(digraph.VID(v))
				}
			}
		}
	})
	b.Run("bottomup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.Reset(true)
			for _, v := range drop {
				a.Deactivate(digraph.VID(v))
			}
		}
	})
}
