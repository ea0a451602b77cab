package digraph

import (
	"fmt"
	"slices"
	"sort"
)

// Cache-aware vertex renumbering. The CSR arrays are laid out by VID, so
// the cost of a traversal is shaped by which vertices share cache lines:
// with arbitrary input numbering, following an edge is a random jump
// across the adjacency slab and a random bit/byte in every per-vertex
// array (marks, masks). A locality permutation renames
// vertices so that the IDs an algorithm touches together lie together:
//
//   - RenumberDegree packs the high-degree core at the low end. Hot rows
//     — the hubs every traversal keeps crossing — then share a compact
//     prefix of the adjacency slab and of every per-vertex array, the
//     part that actually fits in cache; the long cold tail stops being
//     interleaved with it.
//   - RenumberBFS is a Cuthill-McKee-style sweep: vertices are numbered
//     in breadth-first discovery order (undirected neighborhoods,
//     low-degree seeds first, frontier neighbors by ascending degree), so
//     edge endpoints get nearby IDs and the adjacency matrix's bandwidth
//     shrinks — following an edge lands near the current position instead
//     of anywhere in the slab.
//
// The permutation is applied once, at ingest (Graph.Renumber or
// Builder.BuildRenumbered rebuilds the CSR in the new order); everything
// downstream — detectors, filters, covers — runs on renumbered IDs without
// knowing it. Callers that must preserve their external IDs keep the
// permutation and translate results back with InversePerm.

// Renumbering selects a vertex renumbering mode.
type Renumbering int

const (
	// RenumberNone keeps the input numbering.
	RenumberNone Renumbering = iota
	// RenumberDegree renames vertices by descending total degree.
	RenumberDegree
	// RenumberBFS renames vertices in a Cuthill-McKee-style breadth-first
	// sweep over undirected neighborhoods.
	RenumberBFS
)

var renumberingNames = map[Renumbering]string{
	RenumberNone: "none", RenumberDegree: "degree", RenumberBFS: "bfs",
}

// String returns the option-surface name of the mode.
func (r Renumbering) String() string {
	if s, ok := renumberingNames[r]; ok {
		return s
	}
	return fmt.Sprintf("Renumbering(%d)", int(r))
}

// ParseRenumbering resolves a renumbering name ("none", "degree", "bfs").
func ParseRenumbering(s string) (Renumbering, error) {
	for r, name := range renumberingNames {
		if s == name {
			return r, nil
		}
	}
	return 0, fmt.Errorf("digraph: unknown renumbering %q (want none, degree or bfs)", s)
}

// RenumberPerm computes the locality permutation of g under the given
// mode: perm[old] = new, deterministic for a given graph. RenumberNone
// returns the identity.
func RenumberPerm(g *Graph, mode Renumbering) []VID {
	n := g.NumVertices()
	perm := make([]VID, n)
	switch mode {
	case RenumberNone:
		for v := range perm {
			perm[v] = VID(v)
		}
	case RenumberDegree:
		ids := make([]VID, n)
		for v := range ids {
			ids[v] = VID(v)
		}
		deg := func(v VID) int { return g.OutDegree(v) + g.InDegree(v) }
		sort.SliceStable(ids, func(i, j int) bool {
			di, dj := deg(ids[i]), deg(ids[j])
			if di != dj {
				return di > dj
			}
			return ids[i] < ids[j] // deterministic tie-break
		})
		for newID, old := range ids {
			perm[old] = VID(newID)
		}
	case RenumberBFS:
		bfsPerm(g, perm)
	default:
		panic(fmt.Sprintf("digraph: unknown renumbering mode %v", mode))
	}
	return perm
}

// bfsPerm fills perm with a Cuthill-McKee-style numbering: seeds in
// ascending-degree order, breadth-first over the union of out- and
// in-neighborhoods, each vertex's unvisited neighbors enqueued by
// ascending degree (ID as tie-break).
func bfsPerm(g *Graph, perm []VID) {
	n := g.NumVertices()
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.OutDegree(VID(v)) + g.InDegree(VID(v)))
	}
	seeds := make([]VID, n)
	for v := range seeds {
		seeds[v] = VID(v)
	}
	sort.SliceStable(seeds, func(i, j int) bool {
		if deg[seeds[i]] != deg[seeds[j]] {
			return deg[seeds[i]] < deg[seeds[j]]
		}
		return seeds[i] < seeds[j]
	})

	visited := make([]bool, n)
	queue := make([]VID, 0, n)
	nbrs := make([]VID, 0, 64)
	next := 0
	for _, s := range seeds {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			perm[v] = VID(next)
			next++
			// Merge the two sorted neighbor lists; duplicates (edges in
			// both directions) are filtered by the visited mark.
			nbrs = nbrs[:0]
			for _, w := range g.Out(v) {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, w)
				}
			}
			for _, w := range g.In(v) {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, w)
				}
			}
			slices.SortStableFunc(nbrs, func(a, b VID) int {
				if deg[a] != deg[b] {
					return int(deg[a] - deg[b])
				}
				return int(int64(a) - int64(b))
			})
			queue = append(queue, nbrs...)
		}
	}
}

// Renumber returns a new graph with vertex v renamed to perm[v]; perm
// must be a permutation of [0, n). The CSR is rebuilt in the new order —
// per-vertex adjacency stays sorted (by NEW IDs), so the result is
// indistinguishable from building the renamed edge list from scratch.
func (g *Graph) Renumber(perm []VID) *Graph {
	n := g.NumVertices()
	if len(perm) != n {
		panic(fmt.Sprintf("digraph: perm length %d != n %d", len(perm), n))
	}
	inv := InversePerm(perm)
	ng := &Graph{
		n:      n,
		outIdx: make([]int64, n+1),
		outAdj: make([]VID, g.NumEdges()),
		inIdx:  make([]int64, n+1),
		inAdj:  make([]VID, g.NumEdges()),
	}
	for nu := 0; nu < n; nu++ {
		old := inv[nu]
		ng.outIdx[nu+1] = ng.outIdx[nu] + int64(g.OutDegree(old))
		ng.inIdx[nu+1] = ng.inIdx[nu] + int64(g.InDegree(old))
	}
	for nu := 0; nu < n; nu++ {
		old := inv[nu]
		row := ng.outAdj[ng.outIdx[nu]:ng.outIdx[nu+1]]
		for i, w := range g.Out(old) {
			row[i] = perm[w]
		}
		slices.Sort(row)
		row = ng.inAdj[ng.inIdx[nu]:ng.inIdx[nu+1]]
		for i, w := range g.In(old) {
			row[i] = perm[w]
		}
		slices.Sort(row)
	}
	return ng
}

// InversePerm inverts a permutation: inv[perm[v]] = v.
func InversePerm(perm []VID) []VID {
	inv := make([]VID, len(perm))
	for old, nw := range perm {
		inv[nw] = VID(old)
	}
	return inv
}

// BuildRenumbered is Build followed by a locality renumbering: it freezes
// the edge set, computes the mode's permutation, and returns the graph
// rebuilt in permuted order together with the permutation (perm[old] =
// new; identity under RenumberNone). Callers keep perm to translate
// between their edge-list IDs and the graph's.
func (b *Builder) BuildRenumbered(mode Renumbering) (*Graph, []VID) {
	g := b.Build()
	perm := RenumberPerm(g, mode)
	if mode == RenumberNone {
		return g, perm
	}
	return g.Renumber(perm), perm
}
