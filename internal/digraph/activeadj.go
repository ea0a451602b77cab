package digraph

import (
	"fmt"
	"math"
)

// ActiveAdjacency is a working-graph view over an immutable Adjacency
// backend that keeps, for every vertex, its live (active-endpoint) out- and
// in-neighbors physically contiguous, so traversals touch exactly the live
// edges.
//
// The VertexMask overlay makes Activate/Deactivate O(1) but leaves every
// traversal O(full degree): detectors iterate the whole CSR adjacency and
// filter each entry through a []bool lookup — a branchy, cache-hostile inner
// loop that dominates the top-down cover, whose working graph is near-empty
// for most of its life. ActiveAdjacency inverts the trade: Activate(v) and
// Deactivate(v) cost O(deg(v)), and ActiveOut(v)/ActiveIn(v) return a
// branch-free slice containing exactly the live neighbors.
//
// Representation: each vertex's adjacency segment in a mutable copy of
// the backend's rows holds, in its first live[u] entries, exactly u's
// active neighbors. Activate(v) appends v to the live prefix of every
// neighbor's row — one write per edge, no lookup; a row never overflows
// because its live prefix holds at most the row's own neighbors. Entries
// past the prefix are stale and never read. Deactivate(v) shrinks each
// neighbor's prefix by one, finds v in it by a scan from the end, and moves
// the prefix's last entry into the hole. Both top-down undos (deactivating
// the vertex just activated) and bottom-up minimality passes find v at the
// end in O(1); an arbitrary deactivation pays its distance from the end.
// Prefix order is thus a pure function of the operation sequence since the
// last Reset, which is what the order-sensitive bottom-up family needs.
//
// The view layers over any Adjacency: CSR-backed backends (Graph,
// MappedGraph) hand it their index and adjacency arrays zero-copy, while a
// generic backend has its rows materialized once at construction. The
// append rule relies on the in-rows being exactly the transpose of the
// out-rows (every backend guarantees it; OpenMapped checks it). Note that
// building a view over a MappedGraph pages the whole adjacency in and
// copies it to heap — the view is a working-graph representation, not an
// out-of-core one; beyond-RAM graphs run on the VertexMask fallback.
//
// The view costs 8 bytes per edge plus 9 bytes per vertex on top of the
// backend. Its live counts are int32, so it supports graphs with at most
// MaxInt32 edges (FitsActiveAdjacency); callers fall back to a VertexMask
// beyond that.
//
// ActiveAdjacency satisfies Adjacency itself — Out/In return the LIVE
// slices — so read-only consumers can take the working graph where they
// take any other backend. NumEdges reports the underlying backend's edge
// count (the view's capacity), not the live count.
//
// ActiveAdjacency is not safe for concurrent use.
type ActiveAdjacency struct {
	base   Adjacency
	n      int
	active []bool
	count  int

	// Segment boundaries and the canonical (sorted) row contents — aliased
	// from CSR-backed backends, materialized once otherwise.
	outIdx, inIdx []int64
	outRef, inRef []VID

	out halfAdj
	in  halfAdj
}

// halfAdj is one direction (out or in) of the working graph; segment
// boundaries come from the view's index arrays.
type halfAdj struct {
	adj  []VID   // adj[idx[v]:idx[v]+live[v]]: v's live neighbors
	live []int32 // live[v]: length of v's live prefix
}

// remove deletes w from v's live prefix, whose segment starts at s, moving
// the prefix's last entry into w's place.
func (h *halfAdj) remove(s int64, v, w VID) {
	h.live[v]--
	row := h.adj[s : s+int64(h.live[v])+1]
	last := len(row) - 1
	i := last
	for row[i] != w {
		i--
	}
	row[i] = row[last]
}

// FitsActiveAdjacency reports whether a is small enough for the view's
// int32 live counts.
func FitsActiveAdjacency(a Adjacency) bool {
	return a.NumEdges() <= math.MaxInt32
}

// refArrays returns the canonical CSR quadruple of a: aliased zero-copy
// when the backend physically stores CSR arrays, materialized row by row
// otherwise.
func refArrays(a Adjacency) (outIdx []int64, outAdj []VID, inIdx []int64, inAdj []VID) {
	if c, ok := a.(csrArrays); ok {
		return c.csr()
	}
	n, m := a.NumVertices(), a.NumEdges()
	outIdx = make([]int64, n+1)
	inIdx = make([]int64, n+1)
	outAdj = make([]VID, 0, m)
	inAdj = make([]VID, 0, m)
	for v := 0; v < n; v++ {
		outAdj = append(outAdj, a.Out(VID(v))...)
		outIdx[v+1] = int64(len(outAdj))
		inAdj = append(inAdj, a.In(VID(v))...)
		inIdx[v+1] = int64(len(inAdj))
	}
	return outIdx, outAdj, inIdx, inAdj
}

// NewActiveAdjacency builds a view over a with every vertex active
// (allActive) or every vertex inactive. Construction is O(n + m); the view
// retains a.
func NewActiveAdjacency(base Adjacency, allActive bool) *ActiveAdjacency {
	if !FitsActiveAdjacency(base) {
		panic(fmt.Sprintf("digraph: graph with m=%d exceeds the active-adjacency limit", base.NumEdges()))
	}
	n, m := base.NumVertices(), base.NumEdges()
	a := &ActiveAdjacency{
		base:   base,
		n:      n,
		active: make([]bool, n),
		out:    halfAdj{adj: make([]VID, m), live: make([]int32, n)},
		in:     halfAdj{adj: make([]VID, m), live: make([]int32, n)},
	}
	a.outIdx, a.outRef, a.inIdx, a.inRef = refArrays(base)
	a.Reset(allActive)
	return a
}

// Base returns the underlying immutable adjacency backend.
func (a *ActiveAdjacency) Base() Adjacency { return a.base }

// Len returns the number of vertices of the underlying backend.
func (a *ActiveAdjacency) Len() int { return a.n }

// NumVertices returns the number of vertices (Adjacency).
func (a *ActiveAdjacency) NumVertices() int { return a.n }

// NumEdges returns the edge count of the UNDERLYING backend — the view's
// capacity, not the live count (Adjacency; see the type comment).
func (a *ActiveAdjacency) NumEdges() int { return a.base.NumEdges() }

// Out returns the live out-neighbors of v (Adjacency; equals ActiveOut).
func (a *ActiveAdjacency) Out(v VID) []VID { return a.ActiveOut(v) }

// In returns the live in-neighbors of v (Adjacency; equals ActiveIn).
func (a *ActiveAdjacency) In(v VID) []VID { return a.ActiveIn(v) }

// OutDegree returns the live out-degree of v (Adjacency).
func (a *ActiveAdjacency) OutDegree(v VID) int { return int(a.out.live[v]) }

// InDegree returns the live in-degree of v (Adjacency).
func (a *ActiveAdjacency) InDegree(v VID) int { return int(a.in.live[v]) }

// Active reports whether v is active.
func (a *ActiveAdjacency) Active(v VID) bool { return a.active[v] }

// NumActive returns the number of active vertices.
func (a *ActiveAdjacency) NumActive() int { return a.count }

// ActiveOut returns the active out-neighbors of v, in the order the type
// comment defines. The slice aliases internal storage and is invalidated by
// the next Activate/Deactivate/Reset; it must not be modified.
func (a *ActiveAdjacency) ActiveOut(v VID) []VID {
	s := a.outIdx[v]
	return a.out.adj[s : s+int64(a.out.live[v])]
}

// ActiveIn returns the active in-neighbors of v under the same rules as
// ActiveOut.
func (a *ActiveAdjacency) ActiveIn(v VID) []VID {
	s := a.inIdx[v]
	return a.in.adj[s : s+int64(a.in.live[v])]
}

// ActiveOutDegree returns the number of active out-neighbors of v.
func (a *ActiveAdjacency) ActiveOutDegree(v VID) int { return int(a.out.live[v]) }

// ActiveInDegree returns the number of active in-neighbors of v.
func (a *ActiveAdjacency) ActiveInDegree(v VID) int { return int(a.in.live[v]) }

// Activate makes v active, appending it to the live prefix of each
// neighbor's row in O(deg(v)). It reports whether the state changed.
func (a *ActiveAdjacency) Activate(v VID) bool {
	if a.active[v] {
		return false
	}
	a.active[v] = true
	a.count++
	// v joins the live prefix of every in-neighbor's out-row...
	for _, u := range a.inRef[a.inIdx[v]:a.inIdx[v+1]] {
		a.out.adj[a.outIdx[u]+int64(a.out.live[u])] = v
		a.out.live[u]++
	}
	// ...and of every out-neighbor's in-row.
	for _, w := range a.outRef[a.outIdx[v]:a.outIdx[v+1]] {
		a.in.adj[a.inIdx[w]+int64(a.in.live[w])] = v
		a.in.live[w]++
	}
	return true
}

// Deactivate makes v inactive, removing it from the live prefix of each
// neighbor's row in O(deg(v)) plus, per row, v's distance from the prefix's
// end. It reports whether the state changed.
func (a *ActiveAdjacency) Deactivate(v VID) bool {
	if !a.active[v] {
		return false
	}
	a.active[v] = false
	a.count--
	for _, u := range a.inRef[a.inIdx[v]:a.inIdx[v+1]] {
		a.out.remove(a.outIdx[u], u, v)
	}
	for _, w := range a.outRef[a.outIdx[v]:a.outIdx[v+1]] {
		a.in.remove(a.inIdx[w], w, v)
	}
	return true
}

// Reset sets every vertex to the given state, leaving the view exactly as
// a freshly built one: Reset(true) copies the canonical (sorted) rows back
// in O(n + m), and Reset(false) only clears the live counts and flags in
// O(n), since an empty prefix has no order. Neither allocates, so a pooled
// view is reusable across cover runs.
func (a *ActiveAdjacency) Reset(allActive bool) {
	if allActive {
		copy(a.out.adj, a.outRef)
		copy(a.in.adj, a.inRef)
		for v := 0; v < a.n; v++ {
			a.out.live[v] = int32(a.outIdx[v+1] - a.outIdx[v])
			a.in.live[v] = int32(a.inIdx[v+1] - a.inIdx[v])
			a.active[v] = true
		}
		a.count = a.n
	} else {
		clear(a.out.live)
		clear(a.in.live)
		clear(a.active)
		a.count = 0
	}
}
