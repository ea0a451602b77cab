package digraph

import "slices"

// Adjacency is the read-side contract every cycle-cover algorithm in this
// repository consumes: a directed graph exposing per-vertex neighbor lists
// as slices. It decouples the algorithms from WHERE the bytes live — the
// in-memory CSR (Graph), the mmap-backed segmented CSR for graphs larger
// than RAM (MappedGraph), or the compacted working-graph view
// (ActiveAdjacency) — so detectors, filters and solvers compile against
// this interface only and backends decide the storage.
//
// Contract:
//   - Vertices are dense integers in [0, NumVertices()).
//   - Out(v) and In(v) return the out-/in-neighbors of v. The slices alias
//     backend storage and must not be modified; callers may hold them only
//     until the next mutation of the backend (immutable backends never
//     invalidate them). Slice-returning accessors keep hot traversal loops
//     zero-copy: scanning a row is a bounds-checked range over backend
//     memory, never an iterator allocation or a per-edge virtual call.
//   - Out(v) of the immutable backends is sorted ascending (the Builder
//     freezes rows sorted and deduplicated); working-graph views may
//     permute rows, so order-sensitive callers must not rely on it there.
//   - NumEdges() is the total directed edge count of the backend (for
//     views: of the underlying graph — the view's capacity).
//
// The dynamic package's Maintainer satisfies Adjacency too: its rows are a
// compacted CSR base under an overlay of full sorted rows for the vertices
// touched since the last compaction, and they are invalidated by its next
// update. Its snapshots (Epoch.Graph) are immutable Graphs.
type Adjacency interface {
	// NumVertices returns the number of vertices, n.
	NumVertices() int
	// NumEdges returns the number of directed edges, m.
	NumEdges() int
	// Out returns the out-neighbors of v. The slice aliases backend
	// storage and must not be modified.
	Out(v VID) []VID
	// In returns the in-neighbors of v under the same rules as Out.
	In(v VID) []VID
	// OutDegree returns len(Out(v)) without materializing the slice header.
	OutDegree(v VID) int
	// InDegree returns len(In(v)).
	InDegree(v VID) int
}

// Storager is optionally implemented by Adjacency backends to name their
// storage backend ("memory", "mapped") for observability; see StorageName.
type Storager interface {
	StorageName() string
}

// Compile-time interface checks for the package's backends.
var (
	_ Adjacency = (*Graph)(nil)
	_ Adjacency = (*MappedGraph)(nil)
	_ Adjacency = (*ActiveAdjacency)(nil)
	_ Storager  = (*Graph)(nil)
	_ Storager  = (*MappedGraph)(nil)
)

// StorageName names the storage backend of a: the backend's own name when
// it implements Storager, "view" for working-graph views, "custom"
// otherwise. The solve layers stamp it into core.Stats.Storage so serving
// metrics can slice per-solve series by backend.
func StorageName(a Adjacency) string {
	switch b := a.(type) {
	case Storager:
		return b.StorageName()
	case *ActiveAdjacency:
		return "view"
	default:
		return "custom"
	}
}

// csrArrays is implemented by backends whose adjacency physically IS a
// compressed-sparse-row quadruple, letting layered representations
// (ActiveAdjacency) and bulk operations alias the arrays zero-copy instead
// of re-materializing them row by row. Backends outside this package go
// through the generic Adjacency path.
type csrArrays interface {
	csr() (outIdx []int64, outAdj []VID, inIdx []int64, inAdj []VID)
}

func (g *Graph) csr() ([]int64, []VID, []int64, []VID) {
	return g.outIdx, g.outAdj, g.inIdx, g.inAdj
}

// HasArc reports whether the directed edge (u, v) exists in a, by binary
// search over u's sorted out-row — O(log outdeg(u)). It requires the
// backend's rows sorted ascending (true for the immutable backends; do not
// use over a working-graph view, whose rows are permuted).
func HasArc(a Adjacency, u, v VID) bool {
	if h, ok := a.(interface{ HasEdge(u, v VID) bool }); ok {
		return h.HasEdge(u, v)
	}
	_, found := slices.BinarySearch(a.Out(u), v)
	return found
}

// Induced builds an in-memory subgraph of a containing only the vertices
// for which keep[v] is true, re-labelling them densely while preserving
// relative order. It returns the subgraph and the mapping newID -> oldID.
// Self-loops are dropped, matching the default Builder policy. It is the
// one-part case of InducedParts.
//
// It panics if len(keep) != a.NumVertices().
func Induced(a Adjacency, keep []bool) (*Graph, []VID) {
	if len(keep) != a.NumVertices() {
		panic("digraph: keep mask length mismatch")
	}
	part := make([]int32, len(keep))
	for v, k := range keep {
		if !k {
			part[v] = -1
		}
	}
	subs, oldIDs := InducedParts(a, part, 1)
	return subs[0], oldIDs[0]
}

// InducedParts builds the subgraph induced by every part of a vertex
// partition in one O(n+m) pass: part[v] in [0, nparts) puts v in that part,
// a negative part[v] leaves v out. Subgraph p keeps exactly the edges whose
// endpoints both lie in part p, relabels its vertices densely in increasing
// old-ID order, and oldIDs[p][i] is the old ID of its vertex i; self-loops
// are dropped, matching the default Builder policy.
//
// The sub-CSRs are filled directly with counting passes instead of
// re-feeding edges through a Builder: the source rows are sorted and
// duplicate-free and every relabelling is monotone, so the kept edges
// arrive in CSR order — no re-sort, no dedup. All parts share one backing
// array per CSR field, so the whole partition costs a handful of
// allocations however many parts it has. The results are always in-memory
// Graphs regardless of the source backend (this carves per-component
// working graphs, which are cover-sized, not storage-sized).
//
// It panics if len(part) != a.NumVertices() or a part is >= nparts.
func InducedParts(a Adjacency, part []int32, nparts int) (subs []*Graph, oldIDs [][]VID) {
	n := a.NumVertices()
	if len(part) != n {
		panic("digraph: partition length mismatch")
	}
	// vOff[p] is part p's first slot in the shared vertex arrays; part p's
	// index rows start at vOff[p]+p (each has one extra slot).
	vOff := make([]int, nparts+1)
	for _, p := range part {
		if p >= 0 {
			vOff[p+1]++
		}
	}
	for p := 0; p < nparts; p++ {
		vOff[p+1] += vOff[p]
	}
	total := vOff[nparts]
	// local[v] is v's dense ID inside its part; oldSlab is its inverse.
	local := make([]VID, n)
	oldSlab := make([]VID, total)
	fill := make([]int, nparts)
	for v, p := range part {
		if p >= 0 {
			local[v] = VID(fill[p])
			oldSlab[vOff[p]+fill[p]] = VID(v)
			fill[p]++
		}
	}
	outSlab := make([]int64, total+nparts)
	inSlab := make([]int64, total+nparts)
	// Pass 1: count kept out- and in-edges per vertex, and per part.
	eOff := make([]int64, nparts+1)
	for v, p := range part {
		if p < 0 {
			continue
		}
		row := vOff[p] + int(p)
		for _, w := range a.Out(VID(v)) {
			if part[w] == p && w != VID(v) {
				outSlab[row+int(local[v])+1]++
				inSlab[row+int(local[w])+1]++
				eOff[p+1]++
			}
		}
	}
	subs = make([]*Graph, nparts)
	oldIDs = make([][]VID, nparts)
	for p := 0; p < nparts; p++ {
		eOff[p+1] += eOff[p]
		lo, hi := vOff[p]+p, vOff[p+1]+p
		outIdx, inIdx := outSlab[lo:hi+1:hi+1], inSlab[lo:hi+1:hi+1]
		for i := 1; i < len(outIdx); i++ {
			outIdx[i] += outIdx[i-1]
			inIdx[i] += inIdx[i-1]
		}
		subs[p] = &Graph{n: vOff[p+1] - vOff[p], outIdx: outIdx, inIdx: inIdx}
		oldIDs[p] = oldSlab[vOff[p]:vOff[p+1]:vOff[p+1]]
	}
	outAdj := make([]VID, eOff[nparts])
	inAdj := make([]VID, eOff[nparts])
	for p, sub := range subs {
		sub.outAdj = outAdj[eOff[p]:eOff[p+1]:eOff[p+1]]
		sub.inAdj = inAdj[eOff[p]:eOff[p+1]:eOff[p+1]]
	}
	// Pass 2: fill. Scanning kept edges in old (U, V) order emits each
	// part's edges in new (U, V) order, so out-rows fill sequentially
	// sorted and in-rows come out sorted by U as in Build.
	outPos := make([]int64, nparts)
	inPos := make([]int64, total)
	for p, sub := range subs {
		copy(inPos[vOff[p]:vOff[p+1]], sub.inIdx)
	}
	for v, p := range part {
		if p < 0 {
			continue
		}
		sub := subs[p]
		for _, w := range a.Out(VID(v)) {
			if part[w] == p && w != VID(v) {
				sub.outAdj[outPos[p]] = local[w]
				outPos[p]++
				c := vOff[p] + int(local[w])
				sub.inAdj[inPos[c]] = local[v]
				inPos[c]++
			}
		}
	}
	return subs, oldIDs
}

// Materialize copies a into a fresh in-memory Graph. The source rows are
// trusted sorted and duplicate-free (every backend in this package freezes
// them that way), so the CSR arrays are filled directly without the
// Builder's re-sort. A *Graph source is returned as-is: Graph is immutable,
// so sharing is safe and the copy would be pure waste.
func Materialize(a Adjacency) *Graph {
	if g, ok := a.(*Graph); ok {
		return g
	}
	return FromSortedRows(a.NumVertices(), a.NumEdges(), func(dst []VID, v VID) []VID {
		return append(dst, a.Out(v)...)
	})
}

// FromSortedRows builds a Graph with n vertices directly from its out-rows:
// appendRow(dst, v) appends v's out-neighbors to dst, ascending and
// duplicate-free, and returns the extended slice. The rows are trusted, so
// the out-CSR fills in row order and the in-CSR in one counting pass over
// it (in-rows come out sorted by source, as in Build) — O(n+m), no sort and
// no dedupe. Self-loops are kept as given; m is a capacity hint for the
// edge count.
func FromSortedRows(n, m int, appendRow func(dst []VID, v VID) []VID) *Graph {
	g := &Graph{
		n:      n,
		outIdx: make([]int64, n+1),
		outAdj: make([]VID, 0, m),
		inIdx:  make([]int64, n+1),
	}
	for v := 0; v < n; v++ {
		g.outAdj = appendRow(g.outAdj, VID(v))
		g.outIdx[v+1] = int64(len(g.outAdj))
	}
	for _, w := range g.outAdj {
		g.inIdx[w+1]++
	}
	for v := 0; v < n; v++ {
		g.inIdx[v+1] += g.inIdx[v]
	}
	g.inAdj = make([]VID, len(g.outAdj))
	fill := make([]int64, n)
	copy(fill, g.inIdx[:n])
	for u := 0; u < n; u++ {
		for _, w := range g.Out(VID(u)) {
			g.inAdj[fill[w]] = VID(u)
			fill[w]++
		}
	}
	return g
}

// PatchRows builds the Graph on n >= base.NumVertices() vertices whose
// rows are base's, except where outDirty(v) (inDirty(v)) reports v's
// out-row (in-row) changed: outRow(dst, v) (inRow(dst, v)) then appends
// the new row, sorted and duplicate-free. Rows past the base are empty
// unless dirty; m is the new edge count. The caller keeps the two sides
// consistent (every new out-edge u->w appears in w's new in-row), so the
// result equals what FromSortedRows builds from the same out-rows.
//
// Each run of clean rows is one bulk copy out of the base's CSR arrays,
// its index shifted by how far the rows before it grew or shrank, so the
// cost is a memmove of the edge arrays plus the dirty rows' own work,
// with no counting scatter over every edge.
func PatchRows(base Adjacency, n, m int, outDirty func(VID) bool, outRow func(dst []VID, v VID) []VID,
	inDirty func(VID) bool, inRow func(dst []VID, v VID) []VID) *Graph {
	outIdx, outAdj, inIdx, inAdj := refArrays(base)
	baseN := base.NumVertices()
	g := &Graph{n: n}
	g.outIdx, g.outAdj = patchSide(outIdx, outAdj, baseN, n, m, outDirty, outRow)
	g.inIdx, g.inAdj = patchSide(inIdx, inAdj, baseN, n, m, inDirty, inRow)
	return g
}

// patchSide is one side (out or in) of PatchRows over the base CSR pair
// (idx, adj) of baseN rows.
func patchSide(idx []int64, adj []VID, baseN, n, m int, dirty func(VID) bool,
	row func(dst []VID, v VID) []VID) ([]int64, []VID) {
	nidx := make([]int64, n+1)
	nadj := make([]VID, 0, m)
	// copyClean appends the clean rows [lo, hi), clipped to the base.
	copyClean := func(lo, hi int) {
		top := min(hi, baseN)
		if lo < top {
			shift := int64(len(nadj)) - idx[lo]
			nadj = append(nadj, adj[idx[lo]:idx[top]]...)
			for v := lo; v < top; v++ {
				nidx[v+1] = idx[v+1] + shift
			}
			lo = top
		}
		for v := lo; v < hi; v++ {
			nidx[v+1] = int64(len(nadj))
		}
	}
	next := 0
	for v := 0; v < n; v++ {
		if !dirty(VID(v)) {
			continue
		}
		copyClean(next, v)
		nadj = row(nadj, VID(v))
		nidx[v+1] = int64(len(nadj))
		next = v + 1
	}
	copyClean(next, n)
	return nidx, nadj
}
