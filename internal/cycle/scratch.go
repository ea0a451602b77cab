package cycle

import (
	"fmt"
	"sync"

	"tdb/internal/digraph"
)

// Scratch owns the O(n) working state the detection primitives need: the
// epoch-marked path/visited maps, the block/barrier tables and the BFS
// queues. Allocating it once per graph and lending it to detectors makes
// repeated queries (and repeated whole covers over the same graph)
// allocation-free; ScratchPool makes that reuse safe across goroutines.
//
// The buffers split into three independent groups:
//
//   - the DFS group (onPath, blocked, stamp, path, plus seedQ, the queue of
//     BlockDetector's backward distance seed), used by PlainDetector,
//     BlockDetector and Enumerator;
//   - the BFS group (visited, inNbr, queue, nextQ), used by BFSFilter;
//   - the lane group (settlement maps plus cur/next frontiers per
//     direction), used by BatchBFSFilter; allocated lazily on first use, so
//     scalar-only workloads never pay for it.
//
// One Scratch may therefore back at most ONE component of each group at a
// time — e.g. a BlockDetector plus a BFSFilter, the pair the top-down cover
// interleaves, or a BlockDetector plus a BatchBFSFilter, the pair
// HasHopConstrainedCycle interleaves — but never two detectors, or a detector and
// an enumerator, concurrently. Scratch is not safe for concurrent use; give
// each worker its own (see ScratchPool).
type Scratch struct {
	n int

	// DFS group.
	onPath  epochMark
	blocked []int32
	stamp   []uint32
	epoch   uint32
	path    []VID
	seedQ   []VID

	// BFS group.
	visited epochMark
	inNbr   epochMark
	queue   []VID
	nextQ   []VID

	// Lane group (lazy).
	lanes   *laneState
	touched []VID // vertices with non-zero reached words
}

// laneState is the lane buffer set of the batched filters: the two
// settlement maps of the bidirectional BFS plus a cur/next frontier pair per
// direction. The slabs are handed over zeroed and must come back zeroed
// (the filters clear exactly the entries they touched).
type laneState struct {
	reachedF  *digraph.LaneBits        // forward-settled lanes
	reachedB  *digraph.LaneBits        // backward-settled lanes
	frontiers [4]*digraph.LaneFrontier // cur/next per direction
}

// laneState returns the lane buffers, allocating them on first use.
func (s *Scratch) laneState() *laneState {
	if s.lanes == nil {
		st := &laneState{
			reachedF: digraph.NewLaneBits(s.n),
			reachedB: digraph.NewLaneBits(s.n),
		}
		for i := range st.frontiers {
			st.frontiers[i] = digraph.NewLaneFrontier(s.n)
		}
		s.lanes = st
	}
	return s.lanes
}

// NewScratch allocates scratch state for graphs with n vertices.
func NewScratch(n int) *Scratch {
	return &Scratch{
		n:       n,
		onPath:  newEpochMark(n),
		blocked: make([]int32, n),
		stamp:   make([]uint32, n),
		visited: newEpochMark(n),
		inNbr:   newEpochMark(n),
	}
}

// Len returns the number of vertices the scratch is sized for.
func (s *Scratch) Len() int { return s.n }

// checkScratch validates a borrowed scratch against the graph size,
// allocating a fresh one when the caller passed nil.
func checkScratch(s *Scratch, n int) *Scratch {
	if s == nil {
		return NewScratch(n)
	}
	if s.n != n {
		panic(fmt.Sprintf("cycle: scratch sized for n=%d used with graph n=%d", s.n, n))
	}
	return s
}

// ScratchPool is a per-graph-size free list of Scratch values backed by
// sync.Pool: parallel cover workers Get one each, and sequential engines
// reuse one across runs without holding it alive forever.
type ScratchPool struct {
	n    int
	pool sync.Pool
}

// NewScratchPool returns a pool of scratch state for graphs with n vertices.
func NewScratchPool(n int) *ScratchPool {
	p := &ScratchPool{n: n}
	p.pool.New = func() any { return NewScratch(n) }
	return p
}

// Get borrows a scratch; return it with Put when the borrowing detector or
// filter is no longer used.
func (p *ScratchPool) Get() *Scratch { return p.pool.Get().(*Scratch) }

// Put returns a scratch to the pool. Scratch of a mismatched size is
// silently dropped rather than poisoning the pool.
func (p *ScratchPool) Put(s *Scratch) {
	if s != nil && s.n == p.n {
		p.pool.Put(s)
	}
}
