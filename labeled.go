package tdb

import (
	"context"
	"fmt"

	"tdb/internal/digraph"
)

// This file is the labeled layer: real-world graphs address vertices by
// external identities (account numbers, lock names, register identifiers),
// not by the dense VID integers the solver engine runs on. LabeledBuilder
// interns any comparable ID type into dense VIDs at build time, and
// LabeledGraph / LabeledMaintainer translate every result — covers,
// cycles, weights, dynamic updates — back to the external IDs, so callers
// never handle a VID.

// LabeledBuilder accumulates edges between external vertex IDs of any
// comparable type K, interning each distinct ID into a dense VID. Self-loop
// and duplicate-edge policies follow Builder.
type LabeledBuilder[K comparable] struct {
	b      *Builder
	index  map[K]VID
	labels []K
}

// NewLabeledBuilder returns an empty builder over external IDs of type K.
func NewLabeledBuilder[K comparable]() *LabeledBuilder[K] {
	return &LabeledBuilder[K]{b: NewBuilder(0), index: make(map[K]VID)}
}

// Intern registers label as a vertex (if new) and returns its dense VID.
// Edges imply interning, so calling Intern directly is only needed for
// vertices that might stay isolated.
func (lb *LabeledBuilder[K]) Intern(label K) VID {
	if v, ok := lb.index[label]; ok {
		return v
	}
	v := VID(len(lb.labels))
	lb.index[label] = v
	lb.labels = append(lb.labels, label)
	lb.b.EnsureVertices(len(lb.labels))
	return v
}

// AddEdge adds the directed edge from u to v, interning both labels.
func (lb *LabeledBuilder[K]) AddEdge(u, v K) {
	lb.b.AddEdge(lb.Intern(u), lb.Intern(v))
}

// NumVertices returns the number of distinct labels interned so far.
func (lb *LabeledBuilder[K]) NumVertices() int { return len(lb.labels) }

// Build freezes the accumulated edges into a LabeledGraph. The builder
// must not be reused afterwards.
func (lb *LabeledBuilder[K]) Build() *LabeledGraph[K] {
	return &LabeledGraph[K]{g: lb.b.Build(), index: lb.index, labels: lb.labels}
}

// LabeledGraph is an immutable directed graph whose vertices carry external
// IDs of type K. It exposes the same solving surface as the VID layer with
// every input and output translated, plus accessors for mixing with
// VID-level APIs (Graph, Labels): an Engine over Graph() serves repeated
// traffic, and Labels translates its covers back.
type LabeledGraph[K comparable] struct {
	g      *Graph
	index  map[K]VID
	labels []K
}

// Graph returns the underlying dense-VID graph.
func (lg *LabeledGraph[K]) Graph() *Graph { return lg.g }

// NumVertices returns the vertex count.
func (lg *LabeledGraph[K]) NumVertices() int { return lg.g.NumVertices() }

// NumEdges returns the edge count.
func (lg *LabeledGraph[K]) NumEdges() int { return lg.g.NumEdges() }

// Label returns the external ID of a dense vertex.
func (lg *LabeledGraph[K]) Label(v VID) K { return lg.labels[v] }

// Labels translates a slice of dense vertices (e.g. a cover from a
// VID-level Engine) to their external IDs.
func (lg *LabeledGraph[K]) Labels(vs []VID) []K {
	if vs == nil {
		return nil
	}
	out := make([]K, len(vs))
	for i, v := range vs {
		out[i] = lg.labels[v]
	}
	return out
}

// Lookup resolves an external ID to its dense VID.
func (lg *LabeledGraph[K]) Lookup(label K) (VID, bool) {
	v, ok := lg.index[label]
	return v, ok
}

// Weights builds the dense cost vector WithWeights consumes from per-label
// costs: vertices listed in costs get their value, all others get def.
func (lg *LabeledGraph[K]) Weights(costs map[K]float64, def float64) []float64 {
	w := make([]float64, lg.g.NumVertices())
	for i := range w {
		w[i] = def
	}
	for label, c := range costs {
		if v, ok := lg.index[label]; ok {
			w[v] = c
		}
	}
	return w
}

// LabeledResult is a solve outcome translated to external IDs.
type LabeledResult[K comparable] struct {
	// Cover lists the cover vertices by external ID (cover order follows
	// the ascending-VID order of the underlying result).
	Cover []K
	// Edges is the edge transversal of a WithEdgeCover solve, nil
	// otherwise.
	Edges []LabeledEdge[K]
	// Stats records the run, including the chosen execution plan.
	Stats Stats
	// Raw is the untranslated dense-VID result.
	Raw *Result
}

// LabeledEdge is a directed edge between external IDs.
type LabeledEdge[K comparable] struct {
	U, V K
}

// Solve computes a hop-constrained cycle cover of the labeled graph — the
// labeled counterpart of the package-level Solve, accepting the same
// options and translating the resulting cover (or edge transversal) back
// to external IDs.
func (lg *LabeledGraph[K]) Solve(ctx context.Context, k int, opts ...Option) (*LabeledResult[K], error) {
	r, err := Solve(ctx, lg.g, k, opts...)
	if err != nil {
		return nil, err
	}
	return lg.translate(r), nil
}

// translate maps a dense result onto external IDs.
func (lg *LabeledGraph[K]) translate(r *Result) *LabeledResult[K] {
	lr := &LabeledResult[K]{Cover: lg.Labels(r.Cover), Stats: r.Stats, Raw: r}
	if r.Edges != nil {
		lr.Edges = make([]LabeledEdge[K], len(r.Edges))
		for i, e := range r.Edges {
			lr.Edges[i] = LabeledEdge[K]{U: lg.labels[e.U], V: lg.labels[e.V]}
		}
	}
	return lr
}

// FindCycle returns one cycle of length in [3, k] through the vertex
// labeled s, as external IDs, or nil when none exists (or the label is
// unknown).
func (lg *LabeledGraph[K]) FindCycle(k int, s K) []K {
	v, ok := lg.index[s]
	if !ok {
		return nil
	}
	return lg.Labels(FindCycle(lg.g, k, v))
}

// EnumerateCycles lists every cycle of length in [3, k] as external IDs,
// calling fn until it returns false.
func (lg *LabeledGraph[K]) EnumerateCycles(k int, fn func(c []K) bool) {
	EnumerateCycles(lg.g, k, func(c []VID) bool {
		return fn(lg.Labels(c))
	})
}

// Maintainer seeds a LabeledMaintainer with this graph and a valid cover of
// it (typically from Solve), for cycles of length in [minLen, k]. Unknown
// cover labels are an error — a cover that names vertices outside the graph
// cannot have come from it.
func (lg *LabeledGraph[K]) Maintainer(k, minLen int, cover []K) (*LabeledMaintainer[K], error) {
	dense := make([]VID, len(cover))
	for i, label := range cover {
		v, ok := lg.index[label]
		if !ok {
			return nil, fmt.Errorf("tdb: cover label %v is not a vertex of the graph", label)
		}
		dense[i] = v
	}
	m, err := MaintainerFromGraph(lg.g, k, minLen, dense)
	if err != nil {
		return nil, err
	}
	index := make(map[K]VID, len(lg.index))
	for label, v := range lg.index {
		index[label] = v
	}
	return &LabeledMaintainer[K]{
		m:      m,
		index:  index,
		labels: append([]K(nil), lg.labels...),
	}, nil
}

// LabeledMaintainer keeps a hop-constrained cycle cover valid across a
// stream of edge insertions and deletions addressed by external IDs — the
// labeled counterpart of Maintainer. Labels first seen mid-stream are
// interned on the fly (the underlying maintainer grows), so an open-ended
// entity universe (new accounts, new locks) needs no pre-registration.
type LabeledMaintainer[K comparable] struct {
	m      *Maintainer
	index  map[K]VID
	labels []K
}

// NewLabeledMaintainer creates a labeled maintainer over an initially empty
// graph, for cycles of length in [minLen, k].
func NewLabeledMaintainer[K comparable](k, minLen int) *LabeledMaintainer[K] {
	return &LabeledMaintainer[K]{
		m:     NewMaintainer(0, k, minLen),
		index: make(map[K]VID),
	}
}

// intern maps a label to its dense vertex, growing the maintainer for
// labels never seen before.
func (lm *LabeledMaintainer[K]) intern(label K) VID {
	if v, ok := lm.index[label]; ok {
		return v
	}
	v := VID(len(lm.labels))
	lm.index[label] = v
	lm.labels = append(lm.labels, label)
	lm.m.Grow(len(lm.labels))
	return v
}

// InsertEdge adds the directed edge from u to v (interning new labels),
// updating the cover if the insertion created uncovered constrained
// cycles. It returns the label added to the cover and true, or a zero K
// and false when no addition was needed.
func (lm *LabeledMaintainer[K]) InsertEdge(u, v K) (K, bool) {
	added := lm.m.InsertEdge(lm.intern(u), lm.intern(v))
	if added < 0 {
		var zero K
		return zero, false
	}
	return lm.labels[added], true
}

// LabeledUpdate is one edge operation of a LabeledMaintainer.ApplyBatch
// batch, addressed by external IDs.
type LabeledUpdate[K comparable] struct {
	Op   UpdateOp
	U, V K
}

// ApplyBatch applies the updates in order — interning labels first seen in
// an insertion, ignoring deletions of unknown labels — and returns the
// labels added to the cover, in the order they were added. Cycle-existence
// queries for insertions between uncovered endpoints are deferred to the
// end of the batch and answered in order by the same bounded search as
// InsertEdge (see Maintainer.ApplyBatch).
func (lm *LabeledMaintainer[K]) ApplyBatch(updates []LabeledUpdate[K]) []K {
	dense := make([]Update, 0, len(updates))
	for _, up := range updates {
		switch up.Op {
		case UpdateInsert:
			dense = append(dense, InsertOp(lm.intern(up.U), lm.intern(up.V)))
		case UpdateDelete:
			u, ok := lm.index[up.U]
			if !ok {
				continue
			}
			v, ok := lm.index[up.V]
			if !ok {
				continue
			}
			dense = append(dense, DeleteOp(u, v))
		}
	}
	added := lm.m.ApplyBatch(dense)
	if len(added) == 0 {
		return nil
	}
	out := make([]K, len(added))
	for i, v := range added {
		out[i] = lm.labels[v]
	}
	return out
}

// DeleteEdge removes the edge from u to v if present, reporting whether it
// existed. The cover stays valid; Reminimize sheds entries deletions made
// redundant.
func (lm *LabeledMaintainer[K]) DeleteEdge(u, v K) bool {
	uv, ok := lm.index[u]
	if !ok {
		return false
	}
	vv, ok := lm.index[v]
	if !ok {
		return false
	}
	return lm.m.DeleteEdge(uv, vv)
}

// HasEdge reports whether the edge currently exists.
func (lm *LabeledMaintainer[K]) HasEdge(u, v K) bool {
	uv, ok := lm.index[u]
	if !ok {
		return false
	}
	vv, ok := lm.index[v]
	if !ok {
		return false
	}
	return lm.m.HasEdge(uv, vv)
}

// Covered reports whether the label is currently in the cover.
func (lm *LabeledMaintainer[K]) Covered(label K) bool {
	v, ok := lm.index[label]
	return ok && lm.m.Covered(v)
}

// Cover returns the current cover as external IDs.
func (lm *LabeledMaintainer[K]) Cover() []K {
	dense := lm.m.Cover()
	out := make([]K, len(dense))
	for i, v := range dense {
		out[i] = lm.labels[v]
	}
	return out
}

// CoverSize returns the current cover size.
func (lm *LabeledMaintainer[K]) CoverSize() int { return lm.m.CoverSize() }

// NumVertices returns the number of labels interned so far.
func (lm *LabeledMaintainer[K]) NumVertices() int { return len(lm.labels) }

// NumEdges returns the current edge count.
func (lm *LabeledMaintainer[K]) NumEdges() int { return lm.m.NumEdges() }

// Reminimize runs the minimal pruning pass over the cover entries whose
// witness cycle a deletion or a later entry broke (or that were seeded
// without one), returning the number of entries shed. Afterwards the
// cover is minimal.
func (lm *LabeledMaintainer[K]) Reminimize() int { return lm.m.Reminimize() }

// Stats returns operation counters: edge inserts, deletes, bounded cycle
// searches, and cover additions.
func (lm *LabeledMaintainer[K]) Stats() (inserts, deletes, cycleChecks, coverAdds int64) {
	return lm.m.Stats()
}

// Snapshot freezes the current graph into an immutable LabeledGraph
// (labels included), e.g. to Verify the maintained cover or re-Solve from
// scratch.
func (lm *LabeledMaintainer[K]) Snapshot() *LabeledGraph[K] {
	index := make(map[K]VID, len(lm.index))
	for label, v := range lm.index {
		index[label] = v
	}
	return &LabeledGraph[K]{
		g:      digraph.Materialize(lm.m.Snapshot()),
		index:  index,
		labels: append([]K(nil), lm.labels...),
	}
}

// Verify checks the maintained cover against the current graph: validity
// always, minimality when wantMinimal is set.
func (lm *LabeledMaintainer[K]) Verify(wantMinimal bool) Report {
	return Verify(lm.m.Snapshot(), lm.m.K(), lm.m.MinLen(), lm.m.Cover(), wantMinimal)
}
