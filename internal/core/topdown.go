package core

import (
	"time"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
)

// detector is the common surface of the plain and block-based detectors.
type detector interface {
	HasCycleThrough(s VID) bool
}

// working is the mutable working-graph surface the cover loops drive. Both
// representations implement it: digraph.VertexMask (O(1) toggles, detectors
// filter every scanned edge) and digraph.ActiveAdjacency (O(deg) toggles,
// detectors traverse only live edges). See runScratch.workingGraph.
type working interface {
	Activate(v VID) bool
	Deactivate(v VID) bool
}

// topDown implements the paper's top-down cover (Alg. 8) in its three
// variants:
//
//	TDB   — plain bounded-DFS detector;
//	TDB+  — block-based detector (Alg. 9-10);
//	TDB++ — block-based detector with its BFS filter on (Alg. 11), the
//	        exact tagged meet, which answers alone at MinLen <= 3.
//
// The cover starts conceptually as all of V and the working graph G0 as
// empty. Each candidate v is activated (all its edges join G0); if no
// constrained cycle passes through v, the working graph is still acyclic
// and v is dropped from the cover for good; otherwise v is kept in the
// cover and deactivated again. The invariant — G0 holds no constrained
// cycle — makes every kept vertex a witness of its own necessity, so the
// result is minimal (paper Theorem 7).
//
// The one-shot and engine paths run this same loop; the engine only
// supplies pooled scratch.
func topDown(g digraph.Adjacency, algo Algorithm, opts Options, rs *runScratch) *Result {
	start := time.Now()
	stop := opts.stop()
	r := &Result{}
	candidates := cycleCandidates(g, opts, &r.Stats)

	view, active := rs.workingGraph(g, opts, false)

	var det detector
	var plainDet *cycle.PlainDetector
	var blockDet *cycle.BlockDetector
	if algo == TDB {
		if view != nil {
			plainDet = cycle.NewPlainDetectorView(view, opts.K, opts.MinLen, rs.cyc)
		} else {
			plainDet = cycle.NewPlainDetectorWith(g, opts.K, opts.MinLen, rs.active.Raw(), rs.cyc)
		}
		plainDet.Cancelled = stop // the plain DFS is worst-case O(n^k)
		det = plainDet
	} else {
		blockDet = rs.blockDetector(g, view, opts)
		blockDet.Filter = algo == TDBPlusPlus
		det = blockDet
	}

	for _, v := range vertexOrderBuf(g, opts, rs.ids) {
		if stop != nil && stop() {
			// Everything not yet processed stays in the (partial) cover —
			// except vertices the SCC prefilter already proved to lie on no
			// cycle, which can never be needed.
			r.Stats.TimedOut = true
			if candidates == nil || candidates[v] {
				r.Cover = append(r.Cover, v)
			}
			continue
		}
		active.Activate(v)
		if candidates != nil && !candidates[v] {
			continue // provably on no cycle: never in the cover
		}
		r.Stats.Checked++
		necessary := det.HasCycleThrough(v)
		if plainDet != nil && plainDet.WasAborted() {
			// Inconclusive: keep v in the cover (always safe) and flag the
			// timeout.
			necessary = true
			r.Stats.TimedOut = true
		}
		if necessary {
			r.Cover = append(r.Cover, v)
			active.Deactivate(v)
		}
	}

	if plainDet != nil {
		r.Stats.Detector.Add(plainDet.Stats)
	} else {
		r.Stats.Detector.Add(blockDet.Stats)
		r.Stats.FilterPruned = blockDet.Stats.BFSPruned
	}
	if r.Stats.TimedOut && opts.PartialOnDeadline {
		// The stop path above completed the cover conservatively (every
		// undecided candidate is in it), so the result is a valid —
		// merely non-minimal — cover: degrade instead of failing.
		r.Stats.TimedOut = false
		r.Stats.Degraded = true
	}
	finishStats(r, g, algo, opts, start)
	return r
}
