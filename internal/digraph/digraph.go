// Package digraph provides a compact directed-graph substrate used by every
// algorithm in this repository.
//
// The central type is Graph, an immutable compressed-sparse-row (CSR)
// representation storing both out- and in-adjacency so that forward DFS/BFS
// (cycle search) and backward propagation (the Unblock step of the barrier
// technique) are both cache-friendly. Graphs are constructed through a
// Builder, which applies the paper's edge policies (self-loops dropped,
// duplicates merged) and then freezes the edge set.
//
// Algorithms that need a mutating view (the bottom-up cover removes a chosen
// vertex's edges; the top-down cover grows an initially empty graph) layer a
// working-graph representation over the immutable Graph instead of
// physically editing adjacency lists: either a VertexMask (O(1) toggles,
// traversals filter the full degree) or an ActiveAdjacency view (O(deg)
// toggles, traversals touch exactly the live edges) — see DESIGN.md §7 for
// the trade-off.
package digraph

import (
	"fmt"
	"math"
	"slices"
)

// VID identifies a vertex. Vertices are dense integers in [0, NumVertices).
// 32-bit IDs keep the CSR arrays half the size of int64 IDs, which matters
// for the billion-edge regime the paper targets.
type VID = uint32

// Edge is a directed edge from U to V.
type Edge struct {
	U, V VID
}

// Graph is an immutable directed graph in CSR form.
//
// The zero value is an empty graph with no vertices. Use a Builder to create
// non-trivial graphs.
type Graph struct {
	n int

	outIdx []int64 // len n+1; outAdj[outIdx[v]:outIdx[v+1]] are v's out-neighbors
	outAdj []VID   // sorted per vertex
	inIdx  []int64 // len n+1; inAdj[inIdx[v]:inIdx[v+1]] are v's in-neighbors
	inAdj  []VID   // sorted per vertex
}

// NumVertices returns the number of vertices, n.
func (g *Graph) NumVertices() int {
	return g.n
}

// NumEdges returns the number of directed edges, m.
func (g *Graph) NumEdges() int {
	return len(g.outAdj)
}

// Out returns the out-neighbors of v in increasing order.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) Out(v VID) []VID {
	return g.outAdj[g.outIdx[v]:g.outIdx[v+1]]
}

// In returns the in-neighbors of v in increasing order.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) In(v VID) []VID {
	return g.inAdj[g.inIdx[v]:g.inIdx[v+1]]
}

// OutDegree returns the number of out-neighbors of v.
func (g *Graph) OutDegree(v VID) int {
	return int(g.outIdx[v+1] - g.outIdx[v])
}

// InDegree returns the number of in-neighbors of v.
func (g *Graph) InDegree(v VID) int {
	return int(g.inIdx[v+1] - g.inIdx[v])
}

// HasEdge reports whether the directed edge (u, v) exists.
// It binary-searches u's sorted out-adjacency, so it costs O(log outdeg(u)).
// slices.BinarySearch compiles to a direct comparison loop over the VID
// slice — no per-probe closure call as with sort.Search
// (BenchmarkHasEdge).
func (g *Graph) HasEdge(u, v VID) bool {
	_, found := slices.BinarySearch(g.Out(u), v)
	return found
}

// StorageName identifies the backend for observability: the in-memory CSR.
func (g *Graph) StorageName() string { return "memory" }

// Edges returns all edges in (u, v) lexicographic order. It allocates a fresh
// slice of length NumEdges.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.n; v++ {
		for _, w := range g.Out(VID(v)) {
			edges = append(edges, Edge{VID(v), w})
		}
	}
	return edges
}

// AvgDegree returns the average out-degree m/n, the davg column of the
// paper's Table II. It returns 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.n)
}

// String summarizes the graph ("digraph(n=7115, m=103689)").
func (g *Graph) String() string {
	return fmt.Sprintf("digraph(n=%d, m=%d)", g.n, g.NumEdges())
}

// Transpose returns a new Graph with every edge reversed. The in/out CSR
// arrays are swapped, so this is O(1) in time and memory beyond the struct
// itself.
func (g *Graph) Transpose() *Graph {
	return &Graph{
		n:      g.n,
		outIdx: g.inIdx, outAdj: g.inAdj,
		inIdx: g.outIdx, inAdj: g.outAdj,
	}
}

// InducedSubgraph builds a new graph containing only the vertices for which
// keep[v] is true, re-labelling them densely while preserving relative order.
// It returns the subgraph and the mapping newID -> oldID. See Induced, the
// backend-generic form this delegates to.
//
// It panics if len(keep) != NumVertices.
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []VID) {
	if len(keep) != g.n {
		panic(fmt.Sprintf("digraph: keep mask length %d != n %d", len(keep), g.n))
	}
	return Induced(g, keep)
}

// Builder accumulates edges and produces an immutable Graph.
//
// Policies (matching the paper's preliminaries):
//   - self-loops are dropped unless KeepSelfLoops is set (the paper never
//     treats them as cycles);
//   - duplicate edges are merged;
//   - bidirectional edges (2-cycles) are kept in the graph — whether they
//     count as cycles is an algorithm option, not a storage policy.
type Builder struct {
	n             int
	edges         []Edge
	KeepSelfLoops bool
	built         bool
}

// NewBuilder returns a Builder for a graph with n vertices. AddVertex or
// AddEdge may grow the vertex count later.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("digraph: negative vertex count")
	}
	return &Builder{n: n}
}

// EnsureVertices grows the vertex count to at least n.
func (b *Builder) EnsureVertices(n int) {
	if n > b.n {
		b.n = n
	}
}

// AddEdge records the directed edge (u, v), growing the vertex count as
// needed. Self-loops are silently dropped unless KeepSelfLoops is set.
func (b *Builder) AddEdge(u, v VID) {
	if u == v && !b.KeepSelfLoops {
		return
	}
	// Compare in uint64: where int is 32 bits wide, int(w) of an ID at or
	// above 2^31 is negative and would never grow the count.
	if w := max(u, v); uint64(w) >= uint64(b.n) {
		if uint64(w) > maxVertexID {
			panic("digraph: vertex ID exceeds the platform's vertex range")
		}
		b.n = int(w) + 1
	}
	b.edges = append(b.edges, Edge{u, v})
}

// maxVertexID is the largest vertex ID a graph can hold: IDs are uint32,
// and the vertex count ID+1 must also fit in an int, which caps IDs at
// 2^31-2 where int is 32 bits wide. The file loaders reject larger IDs.
const maxVertexID = min(math.MaxUint32, math.MaxInt-1)

// AddEdges records a batch of edges under the same policies as AddEdge.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
}

// NumPendingEdges returns the number of edges recorded so far, before
// deduplication.
func (b *Builder) NumPendingEdges() int {
	return len(b.edges)
}

// Build freezes the accumulated edges into an immutable Graph, merging
// duplicates. The Builder must not be reused afterwards.
//
// Each edge is packed into one uint64 key (U in the high half, V in the
// low half) so that sorting and deduplication run over a flat integer
// slice — slices.Sort's specialized pdqsort, no reflection-based
// comparator — which dominates construction time on large edge lists.
func (b *Builder) Build() *Graph {
	if b.built {
		panic("digraph: Builder.Build called twice")
	}
	b.built = true

	keys := make([]uint64, len(b.edges))
	for i, e := range b.edges {
		keys[i] = uint64(e.U)<<32 | uint64(e.V)
	}
	b.edges = nil
	slices.Sort(keys)
	// Merge duplicates in place; uint64 order equals (U, V) lexicographic
	// order.
	m := 0
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue
		}
		keys[m] = k
		m++
	}
	keys = keys[:m]

	g := &Graph{
		n:      b.n,
		outIdx: make([]int64, b.n+1),
		outAdj: make([]VID, m),
		inIdx:  make([]int64, b.n+1),
		inAdj:  make([]VID, m),
	}
	// Out-CSR: keys are already sorted by (U, V).
	for _, k := range keys {
		g.outIdx[k>>32+1]++
	}
	for v := 0; v < b.n; v++ {
		g.outIdx[v+1] += g.outIdx[v]
	}
	for i, k := range keys {
		g.outAdj[i] = VID(k)
	}
	// In-CSR via counting sort on V; per-vertex in-lists come out sorted by U
	// because we scan edges in (U, V) order.
	for _, k := range keys {
		g.inIdx[VID(k)+1]++
	}
	for v := 0; v < b.n; v++ {
		g.inIdx[v+1] += g.inIdx[v]
	}
	fill := make([]int64, b.n)
	copy(fill, g.inIdx[:b.n])
	for _, k := range keys {
		g.inAdj[fill[VID(k)]] = VID(k >> 32)
		fill[VID(k)]++
	}
	return g
}

// FromEdges is a convenience constructor: it builds a graph with n vertices
// from the given edge list under default Builder policies.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	b.AddEdges(edges)
	return b.Build()
}
