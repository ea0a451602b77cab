package tdb

import (
	"context"
	"testing"
)

// TestOptionValidation: invalid or contradictory option sets must be
// rejected with an error, not computed around.
func TestOptionValidation(t *testing.T) {
	g := GenPowerLaw(60, 240, 2.0, 0.3, 1)
	ctx := context.Background()
	cases := []struct {
		name string
		k    int
		opts []Option
	}{
		{"k below minlen", 1, nil},
		{"minlen below 2", 5, []Option{WithMinLen(1)}},
		{"weights length mismatch", 5, []Option{WithWeights([]float64{1, 2, 3})}},
		{"weighted order without weights", 5, []Option{WithOrder(OrderWeighted)}},
		{"edge cover with parallel strategy", 5, []Option{WithEdgeCover(), WithStrategy(StrategyParallelSCC)}},
		{"edge cover with prepass strategy", 5, []Option{WithEdgeCover(), WithStrategy(StrategyPrepass)}},
		{"edge cover with prepass workers", 5, []Option{WithEdgeCover(), WithPrepassWorkers(4)}},
		{"unknown algorithm", 5, []Option{WithAlgorithm(Algorithm(99))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Solve(ctx, g, tc.k, tc.opts...); err == nil {
				t.Fatal("expected an error")
			}
			e := NewEngine(g)
			if _, err := e.Solve(ctx, tc.k, tc.opts...); err == nil {
				t.Fatal("engine: expected an error")
			}
		})
	}
}

// TestNilOptionIgnored: a nil Option in the list must not panic.
func TestNilOptionIgnored(t *testing.T) {
	g := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	r, err := Solve(nil, g, 5, nil, WithOrder(OrderNatural), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cover) != 1 {
		t.Fatalf("cover %v", r.Cover)
	}
}
