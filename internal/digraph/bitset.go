package digraph

// This file holds the word-packed primitives behind bit-parallel multi-source
// BFS (cycle.BatchBFSFilter): one 64-bit word per vertex carries 64
// concurrent traversals. LaneBits maps every vertex to its lane word, and
// LaneFrontier is one BFS level whose members each carry one.
//
// LaneBits and LaneFrontier are FLAT arrays, not epoch-stamped maps: the
// lane word of a vertex is read and written per scanned edge, where a stamp
// check is measurable, so a plain load wins — the owner zeroes exactly the
// entries it touched afterwards (the filters track their touched vertices
// anyway: frontier lists and seed lists). Exported fields keep those hot
// accesses free of call overhead; treat them as the representation they are.

// clearListDivisor is the bulk-clear cutover of LaneBits.ClearList: once the
// touched list covers 1/clearListDivisor of the slab, one sequential
// clear() replaces the scattered per-entry stores. The divisor is 1 — bulk
// only from list size >= vertex count, i.e. duplicate-heavy or superset
// lists. BenchmarkLaneBitsClear shows why the isolated crossover is not the
// right setting: cold scattered clears lose to memclr from ~n/8, and even
// cache-hot ones (the filters' pattern — the list enumerates words the
// sweep just wrote) only break even there. But in situ the memclr also
// evicts the sweep's OTHER hot state — CSR rows, the opposite direction's
// lane slabs — which the next word pays for: an n/8 cutover cost the
// power-law filter sweep 25%. Bulk is therefore reserved for lists no
// shorter than the slab itself, where it cannot lose.
const clearListDivisor = 1

// LaneBits maps each vertex to one uint64 lane word: Words[v] is the lane
// set of vertex v. The zero word means "no lane": owners must return every
// touched word to zero (ClearList) before reuse.
type LaneBits struct {
	Words []uint64
}

// NewLaneBits returns a lane map over n vertices, all words zero.
func NewLaneBits(n int) *LaneBits {
	return &LaneBits{Words: make([]uint64, n)}
}

// ClearList zeroes the words of the given vertices — O(len(verts)) scattered
// stores for short lists, one bulk clear of the whole slab once the list
// passes the measured crossover (see clearListDivisor). Callers may
// therefore pass any superset list of the touched vertices without
// quadratic risk.
func (b *LaneBits) ClearList(verts []VID) {
	if len(verts)*clearListDivisor >= len(b.Words) {
		clear(b.Words)
		return
	}
	for _, v := range verts {
		b.Words[v] = 0
	}
}

// LaneFrontier is one level of a bit-parallel BFS: a set of vertices, each
// carrying the lanes that arrived at it on this level. Push deduplicates
// vertices through the lane word itself (first lanes in = list entry), so a
// level's edge expansion appends each vertex once no matter how many lanes
// arrive.
type LaneFrontier struct {
	Verts []VID
	Bits  LaneBits
}

// NewLaneFrontier returns an empty frontier over n vertices.
func NewLaneFrontier(n int) *LaneFrontier {
	return &LaneFrontier{Bits: LaneBits{Words: make([]uint64, n)}}
}

// Push merges a lane set into v's word. Pushing 0 is a no-op.
func (f *LaneFrontier) Push(v VID, lanes uint64) {
	if lanes == 0 {
		return
	}
	if f.Bits.Words[v] == 0 {
		f.Verts = append(f.Verts, v)
	}
	f.Bits.Words[v] |= lanes
}

// Len returns the number of distinct vertices on the frontier.
func (f *LaneFrontier) Len() int { return len(f.Verts) }

// Clear zeroes the listed vertices' words and empties the list, leaving the
// frontier ready for reuse in O(frontier size).
func (f *LaneFrontier) Clear() {
	f.Bits.ClearList(f.Verts)
	f.Verts = f.Verts[:0]
}
