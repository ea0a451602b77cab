package tdb

import (
	"tdb/internal/dynamic"
	"tdb/internal/graphstat"
)

// Extensions beyond the paper's static vertex-cover problem, built from the
// same primitives (see DESIGN.md): dynamic cover maintenance and instance
// profiling. The edge-transversal variant and the SCC-partitioned parallel
// solver are Solve options (WithEdgeCover, strategy selection).

// Maintainer keeps a hop-constrained cycle cover valid across a stream of
// edge insertions and deletions (the dynamic-graph setting of the paper's
// fraud-detection motivation). LabeledMaintainer is the counterpart
// addressing vertices by external IDs.
type Maintainer = dynamic.Maintainer

// Update is one edge operation of a Maintainer.ApplyBatch batch; build
// them with InsertOp and DeleteOp.
type Update = dynamic.Update

// UpdateOp selects the kind of an Update.
type UpdateOp = dynamic.Op

// The Update kinds.
const (
	UpdateInsert = dynamic.OpInsert
	UpdateDelete = dynamic.OpDelete
)

// InsertOp returns an edge-insertion Update for ApplyBatch.
func InsertOp(u, v VID) Update { return dynamic.InsertOp(u, v) }

// DeleteOp returns an edge-deletion Update for ApplyBatch.
func DeleteOp(u, v VID) Update { return dynamic.DeleteOp(u, v) }

// NewMaintainer creates a dynamic cover maintainer over an initially empty
// graph with n vertices, for cycles of length in [minLen, k].
func NewMaintainer(n, k, minLen int) *Maintainer {
	return dynamic.New(n, k, minLen)
}

// MaintainerFromGraph seeds a maintainer with an existing graph and a valid
// cover of it (typically from Solve). A cover naming vertices outside the
// graph is rejected with an error.
func MaintainerFromGraph(g *Graph, k, minLen int, cover []VID) (*Maintainer, error) {
	return dynamic.FromGraph(g, k, minLen, cover)
}

// GraphProfile summarizes the statistics that make a cycle-cover instance
// hard: degree skew, reciprocity, SCC structure and (when requested) the
// short-cycle length spectrum.
type GraphProfile = graphstat.Profile

// ProfileGraph profiles g; cycleK > 0 additionally counts simple cycles of
// length 2..cycleK (capped at a million — counting is #P-hard in general).
func ProfileGraph(g *Graph, cycleK int) *GraphProfile {
	return graphstat.Compute(g, graphstat.Options{K: cycleK})
}
