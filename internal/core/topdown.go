package core

import (
	"runtime"
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

// Tier-probe tuning. A probe round charges alternating stretches to the two
// tiers until each has decided tierProbeCands candidates (a stretch of
// either tier covers up to cycle.BatchWidth candidates, fewer at the end
// of the order, so rounds are sized in candidates, not stretches). The
// committed span starts at tierCommitStretches and doubles every time a
// re-probe confirms the standing winner, capped at tierCommitMax: on
// stable workloads — fast-hit graphs where the scalar filter keeps
// winning — the loop stops paying for speculative batched probe sweeps
// almost entirely, while a flipped winner resets the span so the probe
// still tracks the crossover as the working graph fills.
const (
	tierProbeCands      = 3 * cycle.BatchWidth
	tierCommitStretches = 26
	tierCommitMax       = 8 * tierCommitStretches
)

// tierProbe picks, by measurement, which filter tier answers a stretch of
// candidates: the batched look-ahead or the scalar per-candidate filter.
// Filter edge-scans per decided candidate are the signal — the detector's
// work is identical under either tier (the decisions are the same), so
// scans are the whole mode-dependent cost, and normalizing by candidates
// lets a partial stretch be compared against full ones directly. Each
// probe round alternates stretches between the tiers until both have
// decided tierProbeCands candidates, commits to the cheaper one for an
// escalating span of stretches, then re-probes. It is the only adaptive
// controller in the filter path, and its signal is deterministic.
type tierProbe struct {
	started    bool
	lastScans  int64
	lastCands  int64
	prevBatch  bool
	scansB     int64 // probe-round scan totals per tier
	scansS     int64
	candsB     int64 // probe-round decided-candidate totals per tier
	candsS     int64
	commitLeft int
	commitSpan int  // current span length; escalates while the winner repeats
	lastWin    bool // winner of the previous completed probe round
	haveWin    bool
	useBatch   bool
}

// nextStretch closes the previous stretch (attributing its scans and
// candidates) and reports whether the next stretch should use the batched
// tier. scansSoFar is the running total of both filters' EdgeScans;
// candsSoFar the running total of candidates assigned to stretches.
func (p *tierProbe) nextStretch(scansSoFar, candsSoFar int64) bool {
	if p.started {
		ds := scansSoFar - p.lastScans
		dc := candsSoFar - p.lastCands
		if p.commitLeft > 0 {
			p.commitLeft--
			if p.commitLeft == 0 { // committed span over: fresh probe round
				p.scansB, p.scansS, p.candsB, p.candsS = 0, 0, 0, 0
			}
		} else if p.prevBatch {
			p.scansB += ds
			p.candsB += dc
		} else {
			p.scansS += ds
			p.candsS += dc
		}
	}
	p.started = true
	p.lastScans = scansSoFar
	p.lastCands = candsSoFar
	switch {
	case p.commitLeft > 0:
		// keep the committed tier
	case p.candsB < tierProbeCands && p.candsS < tierProbeCands:
		p.useBatch = !p.prevBatch // alternate while probing (batch first)
	case p.candsB < tierProbeCands:
		p.useBatch = true // only the batch sample is still short
	case p.candsS < tierProbeCands:
		p.useBatch = false
	default:
		// A batched edge-scan costs ~4/3 of a scalar one (word merges and
		// consolidation ride on it), so the batch tier must win on scans
		// per decided candidate by at least that margin before it is worth
		// committing to.
		win := p.scansB*4*p.candsS <= p.scansS*3*p.candsB
		if p.haveWin && win == p.lastWin {
			p.commitSpan = min(2*p.commitSpan, tierCommitMax)
		} else {
			p.commitSpan = tierCommitStretches
		}
		p.haveWin, p.lastWin = true, win
		p.useBatch = win
		p.commitLeft = p.commitSpan
	}
	p.prevBatch = p.useBatch
	return p.useBatch
}

// topDown implements the paper's top-down cover (Alg. 8) in its three
// variants:
//
//	TDB   — plain bounded-DFS detector;
//	TDB+  — block-based detector (Alg. 9-10);
//	TDB++ — block-based detector behind the BFS-filter (Alg. 11).
//
// The cover starts conceptually as all of V and the working graph G0 as
// empty. Each candidate v is activated (all its edges join G0); if no
// constrained cycle passes through v, the working graph is still acyclic
// and v is dropped from the cover for good; otherwise v is kept in the
// cover and deactivated again. The invariant — G0 holds no constrained
// cycle — makes every kept vertex a witness of its own necessity, so the
// result is minimal (paper Theorem 7).
//
// For TDB++ with Options.PrepassWorkers != 0, a parallel BFS-filter
// prepass (see prepass.go) resolves candidates on their prefix graphs
// before the sequential loop; resolved vertices join the working graph
// without any per-vertex check.
//
// The only error is a recovered prepass-worker panic (a PanicError).
func topDown(g digraph.Adjacency, algo Algorithm, opts Options, rs *runScratch) (*Result, error) {
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
		if view != nil {
			blockDet = cycle.NewBlockDetectorView(view, opts.K, opts.MinLen, rs.cyc)
		} else {
			blockDet = cycle.NewBlockDetectorWith(g, opts.K, opts.MinLen, rs.active.Raw(), rs.cyc)
		}
		det = blockDet
	}
	order := vertexOrderBuf(g, opts, rs.ids)
	var filter *cycle.BatchPrefixFilter
	var scalarFilter *cycle.BFSFilter
	var frank []int32
	var resolved []bool
	if algo == TDBPlusPlus {
		// The scalar filter is tier two of the pruning path: it re-checks,
		// on the exact working graph G0+v, every candidate the batched
		// look-ahead could not prune (and every candidate once the
		// look-ahead switches itself off), so the set of candidates that
		// reach the detector is bit-identical to the paper's sequential
		// loop.
		if view != nil {
			scalarFilter = cycle.NewBFSFilterView(view, opts.K, rs.cyc)
		} else {
			scalarFilter = cycle.NewBFSFilterWith(g, opts.K, rs.active.Raw(), rs.cyc)
		}
		// The batched look-ahead tier runs only on pooled (engine) scratch:
		// its lane buffers cost six words per vertex, which the engine
		// amortizes across runs while a one-shot cover would reallocate —
		// and GC — them every call for a constant-factor gamble. One-shot
		// runs therefore keep the paper's scalar loop. One-shot and engine
		// solves share this single code path either way, the tier choice
		// being a per-run resource decision.
		//
		// The batched filter runs on its OWN membership ranks rather than
		// on the run's working-graph representation: admitting a whole
		// window of candidates to the filter graph costs one int write per
		// vertex instead of O(deg) view swaps, and the view — hence every
		// detector query — stays bit-exactly on the sequential working
		// graph. Ranks are 0 for working-graph members, 1+offset for the
		// current window's vertices in scan order, and rankExcluded for
		// everything else, so lane i of a batch — querying at its own rank
		// — sees G0 plus only the window vertices UP TO its member, a
		// tight superset of its sequential working graph G0+v (tight
		// matters: every candidate the filter misses costs an exhaustive
		// detector query). The filter records its prunes in the same
		// resolved mask the prepass fills, so the loop below has a single
		// "proved unnecessary" path.
		if rs.cycPool != nil {
			frank = rs.filterRankBuf(g.NumVertices())
			filter = &rs.bpf
			filter.Reinit(g, opts.K, frank, rs.cyc)
		}
		// The prepass only pays off with real parallelism: at one effective
		// worker it re-runs the filter queries the loop would run anyway,
		// minus the view's live-edge advantage, and measures ~10-15% slower
		// than the plain sequential loop (DESIGN.md §6). Since the cover is
		// identical either way, a single-worker request is downgraded to the
		// sequential path instead of honored.
		if w := opts.PrepassWorkers; w > 1 || (w < 0 && runtime.GOMAXPROCS(0) > 1) {
			var err error
			resolved, err = prepass(g, opts, order, candidates, stop, &r.Stats, rs)
			if err != nil {
				return nil, err
			}
		} else if filter != nil {
			resolved = rs.resolvedBuf(g.NumVertices())
		}
	}

	// Batched in-loop pruning (TDB++), tier one of the filter: candidates
	// are pruned in windows of cycle.BatchWidth (one 64-lane word) ahead
	// of processing.
	// Lane i's filter graph — G0 plus the window scanned up to its member —
	// is a superset of the member's sequential working graph (it
	// conservatively includes earlier window vertices the loop will move to
	// the cover), so a batch prune is sound for the loop by subgraph
	// inheritance; batch misses fall through to the tier-two scalar filter
	// and the detector, which decide on the exact working graph — keep/drop
	// decisions, hence covers, stay bit-identical to the scalar loop's,
	// preserving Theorem 7's minimality argument unchanged.
	//
	// Whether the look-ahead PAYS depends on the workload, not on any
	// static property this code can see: word-wide sweeps win when lanes
	// share frontiers (hub-heavy graphs, deep queries), and lose to the
	// scalar filter's early exits when queries die in a handful of scans
	// (scattered sparse graphs, saturated working graphs). So the loop
	// measures instead of guessing: it alternates probe stretches of
	// batched and scalar-only filtering, compares filter edge-scans per
	// decided candidate — detector work is identical either way, so scans
	// are the whole mode-dependent cost — and commits to the cheaper tier,
	// re-probing periodically in case the answer changes as the working
	// graph fills.
	var (
		batchBuf     [cycle.BatchWidth]VID
		prunedBuf    [cycle.BatchWidth]bool
		batchedUpTo  int // order positions < batchedUpTo have been tier-assigned
		stretchCands int64
		probe        tierProbe
	)
	// stretchEnd returns the order position just past the next
	// cycle.BatchWidth unresolved candidates — one scalar-tier stretch —
	// counting them into stretchCands for the probe's normalization.
	stretchEnd := func(start int) int {
		seen := 0
		j := start
		for ; j < len(order) && seen < cycle.BatchWidth; j++ {
			v := order[j]
			if (candidates == nil || candidates[v]) && !resolved[v] {
				seen++
			}
		}
		stretchCands += int64(seen)
		return j
	}
	batchWindow := func(start int) {
		batch := batchBuf[:0]
		j := start
		for ; j < len(order) && len(batch) < cycle.BatchWidth; j++ {
			v := order[j]
			// Rank everything scanned by window offset — non-candidates
			// and resolved vertices join the working graph when the loop
			// reaches them, so lanes ordered after them must see them.
			frank[v] = int32(j-start) + 1
			if (candidates == nil || candidates[v]) && !resolved[v] {
				batch = append(batch, v)
			}
		}
		batchedUpTo = j
		stretchCands += int64(len(batch))
		if len(batch) == 0 {
			return
		}
		pruned := prunedBuf[:len(batch)]
		filter.CanPruneBatch(batch, pruned)
		for i, v := range batch {
			if pruned[i] {
				// Proven: no constrained cycle through v in lane i's filter
				// graph, hence in any subgraph the loop could query it on.
				// v stays in the filter graph; its rank collapses to 0 when
				// the loop admits it to the working graph.
				resolved[v] = true
				r.Stats.FilterPruned++
			} else {
				// Inconclusive: withdraw v and hand it back to the
				// per-candidate loop, which decides it on its exact
				// working graph.
				frank[v] = rankExcluded
			}
		}
	}

	for idx, v := range order {
		if stop != nil && stop() {
			// Everything not yet processed stays in the (partial) cover —
			// except vertices the SCC/candidate prefilter, the prepass, or
			// the batched in-loop filter already proved to lie on no
			// constrained cycle, which can never be needed: a surviving
			// cycle through a resolved vertex would have to lie inside the
			// graph it was pruned on (refuted by that proof) or pass
			// through a later unprocessed candidate, which is itself kept
			// in the cover.
			r.Stats.TimedOut = true
			if (candidates == nil || candidates[v]) && (resolved == nil || !resolved[v]) {
				r.Cover = append(r.Cover, v)
			}
			continue
		}
		if filter != nil && idx >= batchedUpTo {
			if probe.nextStretch(filter.Stats.EdgeScans+scalarFilter.Stats.EdgeScans, stretchCands) {
				batchWindow(idx)
			} else {
				batchedUpTo = stretchEnd(idx)
			}
		}
		if candidates != nil && !candidates[v] {
			active.Activate(v) // provably on no cycle: never in the cover
			if frank != nil {
				frank[v] = 0 // the filter graph tracks the working graph
			}
			continue
		}
		r.Stats.Checked++
		if resolved != nil && resolved[v] {
			// Pre-resolved by the prepass or the batched filter: no
			// constrained cycle through v in a superset of the working
			// graph G0+v, hence none in G0+v itself.
			active.Activate(v)
			if frank != nil {
				frank[v] = 0
			}
			continue
		}
		active.Activate(v)
		if frank != nil {
			frank[v] = 0
		}
		necessary := false
		if scalarFilter != nil && scalarFilter.CanPrune(v) {
			// Proven on the exact working graph: no constrained cycle
			// through v in G0. Not necessary.
			r.Stats.FilterPruned++
		} else {
			necessary = det.HasCycleThrough(v)
			if plainDet != nil && plainDet.WasAborted() {
				// Inconclusive: keep v in the cover (always safe) and flag
				// the timeout.
				necessary = true
				r.Stats.TimedOut = true
			}
		}
		if necessary {
			r.Cover = append(r.Cover, v)
			active.Deactivate(v)
			if frank != nil {
				frank[v] = rankExcluded
			}
		}
	}

	// The prepass accumulated its filter counters into r.Stats.Detector
	// already; fold the loop-level detector and filter on top.
	if plainDet != nil {
		r.Stats.Detector.Add(plainDet.Stats)
	} else {
		r.Stats.Detector.Add(blockDet.Stats)
	}
	if filter != nil {
		r.Stats.Detector.Add(filter.Stats)
	}
	if scalarFilter != nil {
		r.Stats.Detector.Add(scalarFilter.Stats)
	}
	if r.Stats.Detector.Batches > 0 {
		r.Stats.FilterBatchWidth = cycle.BatchWidth
	}
	if r.Stats.TimedOut && opts.PartialOnDeadline {
		// The stop path above completed the cover conservatively (every
		// undecided candidate is in it), so the result is a valid —
		// merely non-minimal — cover: degrade instead of failing.
		r.Stats.TimedOut = false
		r.Stats.Degraded = true
	}
	finishStats(r, g, algo, opts, start)
	return r, nil
}

// Unconstrained computes a minimal cover of cycles of every length (the
// paper's Sec. VI-C variant) by running the requested top-down variant with
// the hop constraint lifted to n.
func Unconstrained(g digraph.Adjacency, algo Algorithm, opts Options) (*Result, error) {
	opts.K = cycle.Unconstrained(g)
	return Compute(g, algo, opts)
}
