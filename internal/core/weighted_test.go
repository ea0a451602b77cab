package core

import (
	"math/rand/v2"
	"testing"

	"tdb/internal/digraph"
	"tdb/internal/verify"
)

func coverWeight(cover []VID, w []float64) float64 {
	var sum float64
	for _, v := range cover {
		sum += w[v]
	}
	return sum
}

func TestWeightedOrderSortsDescending(t *testing.T) {
	gr := g(4, 0, 1, 1, 2)
	ids := vertexOrder(gr, Options{Order: OrderWeighted, Weights: []float64{1, 9, 3, 9}})
	// 9s first (ties by ID), then 3, then 1.
	want := []VID{1, 3, 2, 0}
	for i, v := range want {
		if ids[i] != v {
			t.Fatalf("weighted order = %v, want %v", ids, want)
		}
	}
}

func TestWeightedValidation(t *testing.T) {
	gr := g(3, 0, 1, 1, 2, 2, 0)
	if _, err := Compute(gr, TDBPlusPlus, Options{K: 5, Order: OrderWeighted}); err == nil {
		t.Fatal("OrderWeighted without Weights must error")
	}
	if _, err := Compute(gr, TDBPlusPlus, Options{K: 5, Weights: []float64{1}}); err == nil {
		t.Fatal("wrong Weights length must error")
	}
}

// On a triangle with one expensive vertex, the weighted top-down cover must
// avoid the expensive vertex.
func TestWeightedAvoidsExpensiveVertex(t *testing.T) {
	gr := g(3, 0, 1, 1, 2, 2, 0)
	w := []float64{100, 1, 1}
	r, err := Compute(gr, TDBPlusPlus, Options{K: 5, Order: OrderWeighted, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cover) != 1 || r.Cover[0] == 0 {
		t.Fatalf("cover %v should avoid expensive vertex 0", r.Cover)
	}
}

// Weighted runs stay valid, and minimal where promised, and on average
// cost less than natural-order runs, for the top-down and the bottom-up
// family alike.
func TestWeightedCoversValidAndCheaper(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 88))
	algos := []Algorithm{TDBPlusPlus, BUR, BURPlus}
	naturalCost := make(map[Algorithm]float64)
	weightedCost := make(map[Algorithm]float64)
	for iter := 0; iter < 30; iter++ {
		n := 6 + rng.IntN(20)
		b := digraph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		gr := b.Build()
		w := make([]float64, n)
		for i := range w {
			w[i] = 1 + 99*rng.Float64()
		}
		for _, algo := range algos {
			nat, err := Compute(gr, algo, Options{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			wtd, err := Compute(gr, algo, Options{K: 5, Order: OrderWeighted, Weights: w})
			if err != nil {
				t.Fatal(err)
			}
			if ok, witness := verify.IsValid(gr, 5, 3, wtd.Cover); !ok {
				t.Fatalf("iter %d %v: weighted cover invalid, witness %v", iter, algo, witness)
			}
			if algo != BUR {
				if ok, red := verify.IsMinimal(gr, 5, 3, wtd.Cover); !ok {
					t.Fatalf("iter %d %v: weighted cover not minimal: %v", iter, algo, red)
				}
			}
			naturalCost[algo] += coverWeight(nat.Cover, w)
			weightedCost[algo] += coverWeight(wtd.Cover, w)
		}
	}
	for _, algo := range algos {
		if weightedCost[algo] >= naturalCost[algo] {
			t.Errorf("%v: weighted heuristic did not help: weighted=%.1f natural=%.1f",
				algo, weightedCost[algo], naturalCost[algo])
		}
	}
}

// The weighted minimal pass of BUR+ sheds expensive vertices first: cover
// cost never exceeds that of the unweighted prune on the same BUR cover.
func TestWeightedPruneOrder(t *testing.T) {
	cover := []VID{2, 0, 1}
	out := pruneOrder(cover, Options{Weights: []float64{5, 9, 5}})
	// 1 (weight 9) first, then 0 and 2 (ties by ID).
	want := []VID{1, 0, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("pruneOrder = %v, want %v", out, want)
		}
	}
	// Without weights the order is untouched (and the same slice).
	same := pruneOrder(cover, Options{})
	for i := range cover {
		if same[i] != cover[i] {
			t.Fatal("unweighted pruneOrder must preserve insertion order")
		}
	}
}
