package cycle

import "tdb/internal/digraph"

// adjacency is the edge-source layer shared by the detection primitives,
// embedded by PlainDetector and BlockDetector. It selects one of
// the two working-graph representations (DESIGN.md §7):
//
//   - mask: the immutable CSR rows, which the traversal loops filter
//     per-entry through the optional active mask (nil = whole graph);
//   - view: a digraph.ActiveAdjacency whose slices hold exactly the live
//     neighbors, so no per-entry filtering happens at all.
//
// Keeping the selection here, in one place, pins the detectors' activation
// semantics together: the DFS, the seed, the tagged meet and the Unblock
// propagation all see the same live subgraph.
type adjacency struct {
	g      digraph.Adjacency
	active []bool
	view   *digraph.ActiveAdjacency
}

// maskAdjacency sources edges from g filtered by active (nil = all).
func maskAdjacency(g digraph.Adjacency, active []bool) adjacency {
	return adjacency{g: g, active: active}
}

// viewAdjacency sources edges from the live slices of view.
func viewAdjacency(view *digraph.ActiveAdjacency) adjacency {
	return adjacency{g: view.Base(), view: view}
}

// startActive reports whether a query may start from v.
func (a *adjacency) startActive(v VID) bool {
	if a.view != nil {
		return a.view.Active(v)
	}
	return a.active == nil || a.active[v]
}

// out returns the neighbors a traversal scans from u: the live slice of the
// view when present (already active-filtered), the full CSR row otherwise —
// the scan loop then filters each entry through a.active itself.
func (a *adjacency) out(u VID) []VID {
	if a.view != nil {
		return a.view.ActiveOut(u)
	}
	return a.g.Out(u)
}

// in is the backward counterpart of out, used by the distance seed and
// Unblock propagation.
func (a *adjacency) in(u VID) []VID {
	if a.view != nil {
		return a.view.ActiveIn(u)
	}
	return a.g.In(u)
}
