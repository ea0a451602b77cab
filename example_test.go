package tdb_test

import (
	"context"
	"fmt"
	"slices"

	"tdb"
)

// The smallest possible workflow on the unified surface: break every short
// cycle of a triangle.
func ExampleSolve() {
	g := tdb.FromEdges(3, []tdb.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	res, err := tdb.Solve(context.Background(), g, 5)
	if err != nil {
		panic(err)
	}
	fmt.Println("cover size:", len(res.Cover))
	rep := tdb.Verify(g, 5, 3, res.Cover, true)
	fmt.Println("valid:", rep.Valid, "minimal:", rep.Minimal)
	// Output:
	// cover size: 1
	// valid: true minimal: true
}

// Options select the algorithm and variant; here the bottom-up algorithm
// (smallest covers) on two triangles sharing vertex 0.
func ExampleSolve_options() {
	g := tdb.FromEdges(5, []tdb.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 0, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
	})
	res, err := tdb.Solve(context.Background(), g, 5, tdb.WithAlgorithm(tdb.BURPlus))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Cover)
	// Output:
	// [0]
}

// Pinning the strategy: one sequential top-down run over the whole graph,
// with no planning.
func ExampleSolve_sequential() {
	g := tdb.FromEdges(3, []tdb.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	res, err := tdb.Solve(context.Background(), g, 5, tdb.WithStrategy(tdb.StrategySequential))
	if err != nil {
		panic(err)
	}
	fmt.Println("cover size:", len(res.Cover))
	rep := tdb.Verify(g, 5, 3, res.Cover, true)
	fmt.Println("valid:", rep.Valid, "minimal:", rep.Minimal)
	// Output:
	// cover size: 1
	// valid: true minimal: true
}

// An Engine prepares a graph once and answers many solves; here the
// bottom-up algorithm, chosen when cover size matters more than speed.
func ExampleEngine_Solve() {
	// Two triangles sharing vertex 0: the minimum cover is {0}.
	g := tdb.FromEdges(5, []tdb.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 0, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
	})
	e := tdb.NewEngine(g)
	res, err := e.Solve(context.Background(), 5, tdb.WithAlgorithm(tdb.BURPlus))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Cover)
	// Output:
	// [0]
}

// Real-world IDs: the labeled layer interns external identities and
// translates the cover back.
func ExampleLabeledGraph() {
	b := tdb.NewLabeledBuilder[string]()
	b.AddEdge("alice", "bob")
	b.AddEdge("bob", "carol")
	b.AddEdge("carol", "alice")
	lg := b.Build()
	res, err := lg.Solve(context.Background(), 5, tdb.WithAlgorithm(tdb.BURPlus))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Cover)
	// Output:
	// [alice]
}

// Detecting whether any hop-constrained cycle exists at all.
func ExampleHasHopConstrainedCycle() {
	ring := tdb.FromEdges(6, []tdb.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 0},
	})
	fmt.Println(tdb.HasHopConstrainedCycle(ring, 5)) // the 6-ring is too long
	fmt.Println(tdb.HasHopConstrainedCycle(ring, 6))
	// Output:
	// false
	// true
}

// Enumerating all constrained cycles of a small graph.
func ExampleEnumerateCycles() {
	g := tdb.FromEdges(4, []tdb.Edge{
		{U: 0, V: 1}, {U: 1, V: 0}, // 2-cycle: not enumerated (minLen 3)
		{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 1},
	})
	tdb.EnumerateCycles(g, 5, func(c []tdb.VID) bool {
		fmt.Println(c)
		return true
	})
	// Output:
	// [1 2 3]
}

// Keeping a cover valid while edges stream in.
func ExampleMaintainer() {
	m := tdb.NewMaintainer(3, 5, 3)
	fmt.Println(m.InsertEdge(0, 1)) // no cycle yet
	fmt.Println(m.InsertEdge(1, 2)) // still none
	added := m.InsertEdge(2, 0)     // closes the triangle
	fmt.Println(added != -1, m.CoverSize())
	// Output:
	// -1
	// -1
	// true 1
}

// Computing the edge-transversal variant (Definition 5).
func ExampleSolve_edgeCover() {
	g := tdb.FromEdges(3, []tdb.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	res, err := tdb.Solve(context.Background(), g, 5, tdb.WithEdgeCover())
	if err != nil {
		panic(err)
	}
	fmt.Println("edges removed:", len(res.Edges))
	// Output:
	// edges removed: 1
}

// Cache-aware renumbering happens once, when the graph is built: solve the
// renumbered graph, then translate the cover back to the input IDs with
// the inverse permutation. Here two triangles share input vertex 4, which
// degree renumbering moves to the front of the ID range.
func ExampleBuilder_BuildRenumbered() {
	edges := []tdb.Edge{
		{U: 4, V: 1}, {U: 1, V: 5}, {U: 5, V: 4},
		{U: 4, V: 0}, {U: 0, V: 2}, {U: 2, V: 4},
	}
	b := tdb.NewBuilder(0)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	g, perm := b.BuildRenumbered(tdb.RenumberDegree)
	fmt.Println("input vertex 4 is now", perm[4])

	res, err := tdb.Solve(context.Background(), g, 5)
	if err != nil {
		panic(err)
	}
	inv := tdb.InversePerm(perm)
	cover := make([]tdb.VID, len(res.Cover))
	for i, v := range res.Cover {
		cover[i] = inv[v]
	}
	slices.Sort(cover)
	fmt.Println("cover in input IDs:", cover)

	input := tdb.FromEdges(6, edges)
	rep := tdb.Verify(input, 5, 3, cover, true)
	fmt.Println("valid:", rep.Valid, "minimal:", rep.Minimal)
	// Output:
	// input vertex 4 is now 0
	// cover in input IDs: [2 5]
	// valid: true minimal: true
}
