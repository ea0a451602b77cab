package core

import (
	"fmt"
	"slices"
	"time"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
)

// This file applies the paper's top-down process to the EDGE version of the
// problem — Definition 5's k-cycle transversal, the problem DARC natively
// solves: find a small edge set S such that every constrained cycle
// contains an edge of S. The same inversion works: start from an empty
// graph, insert one candidate edge at a time, and keep the edge in the
// transversal exactly when inserting it would close a constrained cycle
// through it. The working graph stays free of constrained cycles, so the
// result is feasible, and every kept edge witnesses a cycle in the final
// reduced graph plus itself, so it is minimal — the argument of Theorem 7
// verbatim. Each check is the block detector's yes/no edge-rooted query
// (cycle.BlockDetector.HasCycleThroughEdge) over the accepted edges, with
// its filter on: exact and O(k·m) per edge, and at MinLen <= 3 answered by
// the O(m) tagged meet alone. This "TDB-E" variant is an
// extension over the paper (which treats only the vertex version) and is
// benchmarked against DARC in bench_test.go.

// EdgeCoverResult is the outcome of TopDownEdges.
type EdgeCoverResult struct {
	// Edges is the minimal transversal: removing these edges from the
	// graph destroys every cycle of length in [MinLen, K].
	Edges []digraph.Edge
	Stats Stats
}

// TopDownEdges computes a minimal constrained-cycle edge transversal with
// the top-down process. Options are interpreted as for Compute; Order
// orders candidate edges by their tail vertex.
func TopDownEdges(g digraph.Adjacency, opts Options) (*EdgeCoverResult, error) {
	return topDownEdges(g, opts, nil)
}

// TopDownEdges is the package-level TopDownEdges over the engine's graph,
// with its detector on the engine's pooled cycle scratch.
func (e *Engine) TopDownEdges(opts Options) (*EdgeCoverResult, error) {
	sc := e.getCyc()
	r, err := topDownEdges(e.g, opts, sc)
	// Non-deferred Put: a panicking run quarantines its scratch (see
	// Compute).
	e.putCyc(sc)
	return r, err
}

// topDownEdges runs TopDownEdges with the detector on sc (nil allocates).
func topDownEdges(g digraph.Adjacency, opts Options, sc *cycle.Scratch) (*EdgeCoverResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(g); err != nil {
		return nil, err
	}
	if opts.PartialOnDeadline {
		// The vertex-side degradation contract (Options.PartialOnDeadline)
		// rests on the top-down VERTEX process keeping every undecided
		// candidate in the cover; the edge transversal's timeout path breaks
		// off mid-vertex without conservatively keeping the remaining edges,
		// so a timed-out edge result is NOT a valid transversal.
		return nil, fmt.Errorf("core: PartialOnDeadline is not supported for the edge transversal")
	}
	start := time.Now()
	stop := opts.stop()
	r := &EdgeCoverResult{}

	// An edge joins the working graph exactly when no constrained cycle
	// closes through it there. The query never traverses the edge itself,
	// so it runs before the edge is appended.
	acc := newAcceptedEdges(g)
	det := cycle.NewBlockDetectorWith(acc, opts.K, opts.MinLen, nil, sc)
	det.Filter = true
	// Candidate edges grouped by tail vertex in the configured order.
	for _, u := range vertexOrder(g, opts) {
		for _, v := range g.Out(u) {
			if stop != nil && stop() {
				r.Stats.TimedOut = true
				break
			}
			r.Stats.Checked++
			if det.HasCycleThroughEdge(u, v) {
				r.Edges = append(r.Edges, digraph.Edge{U: u, V: v})
			} else {
				acc.add(u, v)
			}
		}
		if r.Stats.TimedOut {
			break
		}
	}

	r.Stats.Algorithm = "TDB-E"
	r.Stats.K = opts.K
	r.Stats.MinLen = opts.MinLen
	r.Stats.N = g.NumVertices()
	r.Stats.M = g.NumEdges()
	r.Stats.CoverSize = len(r.Edges)
	r.Stats.Detector = det.Stats
	r.Stats.Storage = digraph.StorageName(g)
	r.Stats.Duration = time.Since(start)
	return r, nil
}

// acceptedEdges is TDB-E's working graph, the edges accepted so far, as a
// digraph.Adjacency. Every row is carved out of g's degrees up front, so
// accepting an edge appends it in place to one out-row and one in-row.
type acceptedEdges struct {
	outIdx, inIdx []int64 // row starts, from g's degrees
	outEnd, inEnd []int64 // row ends: the accepted prefix of each row
	out, in       []VID
	m             int
}

func newAcceptedEdges(g digraph.Adjacency) *acceptedEdges {
	n := g.NumVertices()
	a := &acceptedEdges{
		outIdx: make([]int64, n+1), inIdx: make([]int64, n+1),
		out: make([]VID, g.NumEdges()), in: make([]VID, g.NumEdges()),
	}
	for v := 0; v < n; v++ {
		a.outIdx[v+1] = a.outIdx[v] + int64(g.OutDegree(VID(v)))
		a.inIdx[v+1] = a.inIdx[v] + int64(g.InDegree(VID(v)))
	}
	a.outEnd = slices.Clone(a.outIdx[:n])
	a.inEnd = slices.Clone(a.inIdx[:n])
	return a
}

// add accepts the edge (u, v) of g.
func (a *acceptedEdges) add(u, v VID) {
	a.out[a.outEnd[u]] = v
	a.outEnd[u]++
	a.in[a.inEnd[v]] = u
	a.inEnd[v]++
	a.m++
}

func (a *acceptedEdges) NumVertices() int    { return len(a.outEnd) }
func (a *acceptedEdges) NumEdges() int       { return a.m }
func (a *acceptedEdges) Out(v VID) []VID     { return a.out[a.outIdx[v]:a.outEnd[v]] }
func (a *acceptedEdges) In(v VID) []VID      { return a.in[a.inIdx[v]:a.inEnd[v]] }
func (a *acceptedEdges) OutDegree(v VID) int { return int(a.outEnd[v] - a.outIdx[v]) }
func (a *acceptedEdges) InDegree(v VID) int  { return int(a.inEnd[v] - a.inIdx[v]) }
