package tdb

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"tdb/internal/cycle"
)

// FuzzSolveDifferential checks every cover Solve returns against the
// enumeration oracle (cycle.Enumerator) rather than against another
// detector. The input bytes pick a graph of at most 16 vertices, MinLen in
// {2, 3} and k in [MinLen, MinLen+4]; each input is then solved by every
// algorithm under both strategies, every order that needs no weights and
// with the SCC prefilter off and on. Contract:
//
//   - every cover intersects every enumerated cycle;
//   - the covers of TDB, TDB+, TDB++ and BUR+ are minimal: each cover
//     vertex is the only cover vertex on some enumerated cycle;
//   - TDB, TDB+ and TDB++ return the same cover for each (order, strategy,
//     prefilter) combination, since they make the same decision for every
//     candidate and differ only in how they detect cycles;
//   - the same input renumbered at ingest solves to a cover that, mapped
//     back, is valid and (where promised) minimal. Renumbering changes the
//     candidate order, so the cover itself may differ;
//   - at MinLen 3, HasHopConstrainedCycle, one-shot and on an engine,
//     reports a cycle exactly when the enumerator found one.
func FuzzSolveDifferential(f *testing.F) {
	// Byte 0 picks n, byte 1 MinLen, byte 2 k, byte 3 the random-order
	// seed; the rest is an edge list of (u, v) byte pairs taken mod n.
	f.Add([]byte{5, 1, 2, 0, 0, 1, 1, 2, 2, 3, 0, 2, 3, 4})                   // DAG
	f.Add([]byte{3, 0, 1, 7, 0, 0, 0, 1, 1, 0, 1, 2, 2, 0})                   // self-loop, 2-cycle, triangle
	f.Add([]byte{5, 1, 4, 3, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 2, 3})       // two disjoint SCCs
	f.Add([]byte{7, 1, 4, 9, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 2, 0, 1, 3, 3, 1}) // K4-like, many short cycles
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(data[0])%16
		minLen := 2 + int(data[1])%2
		k := minLen + int(data[2])%5
		seed := uint64(data[3])
		edges := data[4:]
		if len(edges) > 96 { // at most 48 edges: bounds the enumeration
			edges = edges[:96]
		}
		b := NewBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdge(VID(int(edges[i])%n), VID(int(edges[i+1])%n))
		}
		g := b.Build()
		cycles := cycle.NewEnumerator(g, k, minLen, nil).All()
		if minLen == cycle.DefaultMinLen {
			want := len(cycles) > 0
			if got := HasHopConstrainedCycle(g, k); got != want {
				t.Fatalf("HasHopConstrainedCycle(k=%d) = %v, enumerator found %d cycles; edges=%v",
					k, got, len(cycles), g.Edges())
			}
			if got := NewEngine(g).HasHopConstrainedCycle(k); got != want {
				t.Fatalf("Engine.HasHopConstrainedCycle(k=%d) = %v, enumerator found %d cycles; edges=%v",
					k, got, len(cycles), g.Edges())
			}
		}
		perm := RenumberPerm(g, RenumberDegree)
		rg := g.Renumber(perm)
		inv := InversePerm(perm)

		ctx := context.Background()
		for _, order := range []Order{OrderNatural, OrderDegreeAsc, OrderDegreeDesc, OrderRandom} {
			for _, strategy := range []Strategy{StrategySequential, StrategyParallelSCC} {
				for _, prefilter := range []bool{false, true} {
					opts := []Option{WithMinLen(minLen), WithOrder(order), WithSeed(seed),
						WithStrategy(strategy), WithWorkers(2)}
					if prefilter {
						opts = append(opts, WithSCCPrefilter())
					}
					var topDown []VID // the first top-down cover of this combination
					haveTopDown := false
					for _, algo := range []Algorithm{DARCDV, BUR, BURPlus, TDB, TDBPlus, TDBPlusPlus} {
						name := fmt.Sprintf("%v order=%d %v scc=%v n=%d k=%d minlen=%d edges=%v",
							algo, order, strategy, prefilter, n, k, minLen, g.Edges())
						algoOpts := append(slices.Clip(opts), WithAlgorithm(algo))
						res, err := Solve(ctx, g, k, algoOpts...)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						checkOracle(t, name, cycles, res.Cover, promisesMinimal(algo))
						switch algo {
						case TDB, TDBPlus, TDBPlusPlus:
							if !haveTopDown {
								topDown, haveTopDown = res.Cover, true
							} else if !slices.Equal(res.Cover, topDown) {
								t.Fatalf("%s: cover %v differs from the other top-down covers %v",
									name, res.Cover, topDown)
							}
						}

						rres, err := Solve(ctx, rg, k, algoOpts...)
						if err != nil {
							t.Fatalf("%s renumbered: %v", name, err)
						}
						back := make([]VID, len(rres.Cover))
						for i, v := range rres.Cover {
							back[i] = inv[v]
						}
						checkOracle(t, name+" renumbered", cycles, back, promisesMinimal(algo))
					}
				}
			}
		}
	})
}

// promisesMinimal reports whether algo guarantees a minimal cover.
func promisesMinimal(algo Algorithm) bool {
	switch algo {
	case TDB, TDBPlus, TDBPlusPlus, BURPlus:
		return true
	}
	return false
}

// checkOracle checks cover against the enumerated cycle set: every cycle
// must hold a cover vertex, and when minimal is set every cover vertex must
// be the only cover vertex of at least one cycle (otherwise dropping it
// leaves every cycle covered).
func checkOracle(t *testing.T, name string, cycles [][]VID, cover []VID, minimal bool) {
	t.Helper()
	in := make(map[VID]bool, len(cover))
	for _, v := range cover {
		if in[v] {
			t.Fatalf("%s: cover %v repeats vertex %d", name, cover, v)
		}
		in[v] = true
	}
	needed := make(map[VID]bool, len(cover))
	for _, c := range cycles {
		hits, last := 0, VID(0)
		for _, v := range c {
			if in[v] {
				hits++
				last = v
			}
		}
		switch hits {
		case 0:
			t.Fatalf("%s: cover %v misses cycle %v", name, cover, c)
		case 1:
			needed[last] = true
		}
	}
	if !minimal {
		return
	}
	for _, v := range cover {
		if !needed[v] {
			t.Fatalf("%s: cover %v is not minimal: %d lies on no cycle it alone covers", name, cover, v)
		}
	}
}
