package core

import (
	"time"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
)

// bottomUp implements the paper's bottom-up cover (Alg. 4, BUR) and, when
// minimal is set, the extra minimal-pruning pass (Alg. 7, BUR+).
//
// The process: scan start vertices in order; as long as a constrained cycle
// through the current start vertex exists, increment the hit counter H of
// every vertex on the found cycle, move the cycle vertex with the largest H
// into the cover (FindCoverNode, Alg. 6), and delete its edges. H
// accumulates across the whole run, implementing the paper's "vertices hit
// often before are likely to cover more cycles" heuristic.
func bottomUp(g digraph.Adjacency, opts Options, minimal bool, rs *runScratch) *Result {
	start := time.Now()
	stop := opts.stop()
	algo := BUR
	if minimal {
		algo = BURPlus
	}
	r := &Result{}
	n := g.NumVertices()
	candidates := cycleCandidates(g, opts, &r.Stats)

	view, active := rs.workingGraph(g, opts, true)
	// Block queries return the plain DFS's (Alg. 5) first cycle in O(k*m),
	// so H sees the paper's cycles and stop is polled between queries only.
	det := rs.blockDetector(g, view, opts)
	h := rs.hitCounters(n)

	var coverOrder []VID // insertion order, needed by the minimal pass
	for _, s := range vertexOrderBuf(g, opts, rs.ids) {
		if stop != nil && stop() {
			r.Stats.TimedOut = true
			break
		}
		if candidates != nil && !candidates[s] {
			continue
		}
		r.Stats.Checked++
		for c := det.FindFrom(s); c != nil; c = det.FindFrom(s) {
			r.Stats.CyclesHit++
			for _, v := range c {
				h[v]++
			}
			u := findCoverNode(h, c, opts.Weights)
			coverOrder = append(coverOrder, u)
			active.Deactivate(u) // removes all in- and out-edges of u
			if stop != nil && stop() {
				r.Stats.TimedOut = true
				break
			}
		}
		if r.Stats.TimedOut {
			break
		}
	}

	if minimal && !r.Stats.TimedOut {
		// With weights, try shedding the most expensive vertices first.
		coverOrder = minimalPass(det, active, pruneOrder(coverOrder, opts), &r.Stats, stop)
	}
	r.Cover = coverOrder
	r.Stats.Detector = det.Stats
	finishStats(r, g, algo, opts, start)
	return r
}

// findCoverNode picks the cycle vertex with the maximum hit count; ties go
// to the earliest vertex on the cycle (Alg. 6 starts with c[0]). With
// weights, ties go to the cheaper vertex first: under OrderWeighted c[0] is
// the start vertex, the most expensive candidate left.
func findCoverNode(h []int64, c []VID, w []float64) VID {
	best := c[0]
	for _, v := range c[1:] {
		if h[v] > h[best] || h[v] == h[best] && w != nil && w[v] < w[best] {
			best = v
		}
	}
	return best
}

// minimalPass implements Alg. 7: for each cover vertex v (in insertion
// order), restore v into the reduced graph; if no constrained cycle passes
// through v there, v is redundant and is removed from the cover for good
// (staying restored). Otherwise v is deactivated again. The surviving set is
// a minimal cover (paper Theorem 4).
func minimalPass(det *cycle.BlockDetector, active working, cover []VID, st *Stats, stop func() bool) []VID {
	kept := cover[:0]
	for _, v := range cover {
		if stop != nil && stop() {
			st.TimedOut = true
			// Keep v and the rest: a partial prune is still a valid cover.
			kept = append(kept, v)
			continue
		}
		active.Activate(v)
		if det.HasCycleThrough(v) {
			active.Deactivate(v)
			kept = append(kept, v)
		} else {
			st.PruneRemoved++
		}
	}
	return kept
}
