package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"tdb"
)

// Answer checks. Every one runs outside the timed region and returns an
// error describing the first defect it finds.

// coverHash digests a cover so repeated solves can be compared cheaply.
func coverHash(cover []tdb.VID) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range cover {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkCover verifies that cover meets every cycle of length [minLen, k] of
// g and, when wantMinimal is set, that no cover vertex is redundant.
func checkCover(g tdb.Storage, cover []tdb.VID, wantMinimal bool) error {
	if !slices.IsSorted(cover) {
		return fmt.Errorf("cover is not sorted")
	}
	rep := tdb.Verify(g, hopK, minLen, cover, wantMinimal)
	if !rep.Valid {
		return fmt.Errorf("cover of %d vertices misses the cycle %v", len(cover), rep.Witness)
	}
	if wantMinimal && !rep.Minimal {
		return fmt.Errorf("cover of %d vertices is not minimal: %d redundant vertices", len(cover), len(rep.Redundant))
	}
	return nil
}

// checkCycle verifies a returned cycle through src: a closed walk of
// distinct vertices, length in [minLen, k], every edge present per hasEdge.
func checkCycle(hasEdge func(u, v tdb.VID) bool, src tdb.VID, cyc []tdb.VID) error {
	if len(cyc) < minLen || len(cyc) > hopK {
		return fmt.Errorf("cycle %v from %d has length %d outside [%d, %d]", cyc, src, len(cyc), minLen, hopK)
	}
	if !slices.Contains(cyc, src) {
		return fmt.Errorf("cycle %v does not pass through source %d", cyc, src)
	}
	seen := make(map[tdb.VID]bool, len(cyc))
	for i, u := range cyc {
		if seen[u] {
			return fmt.Errorf("cycle %v repeats vertex %d", cyc, u)
		}
		seen[u] = true
		v := cyc[(i+1)%len(cyc)]
		if !hasEdge(u, v) {
			return fmt.Errorf("cycle %v uses the absent edge (%d, %d)", cyc, u, v)
		}
	}
	return nil
}

// checkNoCycle re-checks a found=false answer with the library.
func checkNoCycle(g tdb.Storage, src tdb.VID) error {
	if c := tdb.FindCycle(g, hopK, src); c != nil {
		return fmt.Errorf("server found no cycle through %d but %v exists", src, c)
	}
	return nil
}

// checkRecovered compares a recovered server's state with the state before
// the crash: the same cover and the same state fingerprint.
func checkRecovered(wantCover, gotCover []tdb.VID, wantFP, gotFP uint64) error {
	if !slices.Equal(wantCover, gotCover) {
		return fmt.Errorf("recovered cover has %d vertices, %d before the crash (or different vertices)",
			len(gotCover), len(wantCover))
	}
	if wantFP != gotFP {
		return fmt.Errorf("recovered state fingerprint %016x, want %016x", gotFP, wantFP)
	}
	return nil
}
