// Package verify checks hop-constrained cycle covers: validity (no
// constrained cycle survives removal of the cover) and minimality (every
// cover vertex is necessary). It also provides a brute-force optimal cover
// for tiny graphs, used as a test oracle, and a parallel validity checker
// for large instances.
package verify

import (
	"fmt"
	"runtime"
	"sync"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
)

// VID aliases digraph.VID.
type VID = digraph.VID

// Report is the outcome of Check.
type Report struct {
	Valid   bool
	Minimal bool
	// Witness explains a failure: for an invalid cover, one surviving
	// constrained cycle; for a non-minimal cover, nil (see Redundant).
	Witness []VID
	// Redundant lists cover vertices that could be removed (only populated
	// when minimality was requested and failed).
	Redundant []VID
}

func activeWithout(n int, cover []VID) []bool {
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	for _, v := range cover {
		if uint64(v) >= uint64(n) {
			panic(fmt.Sprintf("verify: cover vertex %d out of range (n=%d)", v, n))
		}
		active[v] = false
	}
	return active
}

// IsValid reports whether cover intersects every cycle of length in
// [minLen, k]: the graph minus the cover must contain no such cycle.
// It returns a surviving cycle as a witness when the cover is invalid.
func IsValid(g digraph.Adjacency, k, minLen int, cover []VID) (bool, []VID) {
	active := activeWithout(g.NumVertices(), cover)
	det := cycle.NewBlockDetector(g, k, minLen, active)
	det.Filter = true
	for v := 0; v < g.NumVertices(); v++ {
		if !active[v] {
			continue
		}
		if c := det.FindFrom(VID(v)); c != nil {
			return false, c
		}
	}
	return true, nil
}

// IsValidParallel is IsValid fanned out over worker goroutines. Each worker
// owns its detector state; the shared active mask is read-only. workers <= 0
// selects GOMAXPROCS. Note the witness from a parallel run is whichever
// surviving cycle a worker found first.
func IsValidParallel(g digraph.Adjacency, k, minLen int, cover []VID, workers int) (bool, []VID) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	active := activeWithout(n, cover)

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		witness []VID
		next    int64
	)
	var nextMu sync.Mutex
	const chunk = 1024
	grab := func() (int, int) {
		nextMu.Lock()
		defer nextMu.Unlock()
		lo := int(next)
		if lo >= n {
			return n, n
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		next = int64(hi)
		return lo, hi
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return witness != nil
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			det := cycle.NewBlockDetector(g, k, minLen, active)
			det.Filter = true
			for {
				lo, hi := grab()
				if lo >= hi || failed() {
					return
				}
				for v := lo; v < hi; v++ {
					if !active[v] {
						continue
					}
					if c := det.FindFrom(VID(v)); c != nil {
						mu.Lock()
						if witness == nil {
							witness = c
						}
						mu.Unlock()
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return witness == nil, witness
}

// IsMinimal reports whether every cover vertex is necessary: restoring any
// single cover vertex into the reduced graph must expose a constrained
// cycle through it. It returns the redundant vertices otherwise. The cover
// is assumed valid.
func IsMinimal(g digraph.Adjacency, k, minLen int, cover []VID) (bool, []VID) {
	active := activeWithout(g.NumVertices(), cover)
	det := cycle.NewBlockDetector(g, k, minLen, active)
	det.Filter = true
	var redundant []VID
	for _, v := range cover {
		active[v] = true
		if !det.HasCycleThrough(v) {
			redundant = append(redundant, v)
		}
		active[v] = false
	}
	return len(redundant) == 0, redundant
}

// Check runs both validity and (optionally) minimality.
func Check(g digraph.Adjacency, k, minLen int, cover []VID, wantMinimal bool) Report {
	rep := Report{}
	rep.Valid, rep.Witness = IsValid(g, k, minLen, cover)
	if !rep.Valid {
		return rep
	}
	if wantMinimal {
		rep.Minimal, rep.Redundant = IsMinimal(g, k, minLen, cover)
	} else {
		rep.Minimal = true
	}
	return rep
}

// BruteForceOptimal returns a minimum-size cover by exhaustive subset
// search over the vertices that appear on at least one constrained cycle.
// It is exponential and intended for graphs with at most ~20 on-cycle
// vertices (the test oracle for optimality-gap measurements).
func BruteForceOptimal(g digraph.Adjacency, k, minLen int) []VID {
	cycles := cycle.NewEnumerator(g, k, minLen, nil).All()
	if len(cycles) == 0 {
		return nil
	}
	// Compress to on-cycle vertices.
	idOf := map[VID]int{}
	var verts []VID
	for _, c := range cycles {
		for _, v := range c {
			if _, ok := idOf[v]; !ok {
				idOf[v] = len(verts)
				verts = append(verts, v)
			}
		}
	}
	if len(verts) > 30 {
		panic(fmt.Sprintf("verify: BruteForceOptimal on %d on-cycle vertices is infeasible", len(verts)))
	}
	masks := make([]uint64, len(cycles))
	for i, c := range cycles {
		for _, v := range c {
			masks[i] |= 1 << idOf[v]
		}
	}
	// Iterate subsets by increasing popcount via size-bounded DFS.
	for size := 1; size <= len(verts); size++ {
		if sel := searchSubset(masks, len(verts), size, 0, 0); sel != 0 {
			var cover []VID
			for i, v := range verts {
				if sel&(1<<i) != 0 {
					cover = append(cover, v)
				}
			}
			return cover
		}
	}
	return nil // unreachable: the full vertex set always covers
}

// searchSubset finds a subset of exactly `size` vertices (from position
// `from` upward, already-selected bits in `sel`) hitting all masks, and
// returns it, or 0.
func searchSubset(masks []uint64, nverts, size, from int, sel uint64) uint64 {
	if size == 0 {
		for _, m := range masks {
			if m&sel == 0 {
				return 0
			}
		}
		return sel
	}
	for i := from; i+size <= nverts; i++ {
		if got := searchSubset(masks, nverts, size-1, i+1, sel|1<<i); got != 0 {
			return got
		}
	}
	return 0
}
