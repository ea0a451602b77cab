package cycle

import (
	"fmt"
	"sync"
)

// Scratch owns the O(n) working state the detection primitives need: the
// epoch-marked path map, the block/barrier tables, the queues of
// BlockDetector's distance seed and tagged meet, the meet's hop-tag tables,
// and the peel mask of HasHopConstrainedCycle. Allocating it once per graph and lending it to
// detectors makes repeated queries (and repeated whole covers over the
// same graph) allocation-free; ScratchPool makes that reuse safe across
// goroutines.
//
// One Scratch may back ONE detector or enumerator at a time: PlainDetector
// and Enumerator run on its onPath and path buffers, BlockDetector on
// those plus blocked, stamp, seedQ, seedQ2 and the tag tables. Scratch is not safe for concurrent
// use; give each worker its own (see ScratchPool).
type Scratch struct {
	n int

	onPath  epochMark
	blocked []int32
	stamp   []uint32
	epoch   uint32
	path    []VID
	seedQ   []VID
	seedQ2  []VID    // second-tag entries of the tagged seed and meet
	back    []tagSet // the meet's hop tags, allocated on first tagged query
	fwd     []tagSet
	peel    []bool // allocated on first use
}

// NewScratch allocates scratch state for graphs with up to n vertices.
func NewScratch(n int) *Scratch {
	return &Scratch{
		n:       n,
		onPath:  newEpochMark(n),
		blocked: make([]int32, n),
		stamp:   make([]uint32, n),
	}
}

// peelMask returns an n-byte peel mask holding a copy of from (nil = every
// vertex), allocating the scratch's mask on first use.
func (s *Scratch) peelMask(from []bool, n int) []bool {
	if s.peel == nil {
		s.peel = make([]bool, s.n)
	}
	live := s.peel[:n]
	for i := range live {
		live[i] = from == nil || from[i]
	}
	return live
}

// tagTables returns the backward and forward tag tables, allocating them
// on first use: only a tagged meet needs them (8 B per vertex each). The
// meet's queues grow with use: the ball and the forward BFS share seedQ
// and seedQ2, so each holds at most 2n entries.
func (s *Scratch) tagTables() (back, fwd []tagSet) {
	if s.back == nil {
		s.back = make([]tagSet, s.n)
		s.fwd = make([]tagSet, s.n)
	}
	return s.back, s.fwd
}

// Len returns the number of vertices the scratch is sized for.
func (s *Scratch) Len() int { return s.n }

// checkScratch validates a borrowed scratch against the graph size,
// allocating a fresh one when the caller passed nil. A scratch sized for
// more vertices serves a smaller graph: every table is indexed by vertex,
// so a graph that grows (the dynamic maintainer) can keep one scratch
// across growth steps.
func checkScratch(s *Scratch, n int) *Scratch {
	if s == nil {
		return NewScratch(n)
	}
	if s.n < n {
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

// Get borrows a scratch; return it with Put when the borrowing detector is
// no longer used.
func (p *ScratchPool) Get() *Scratch { return p.pool.Get().(*Scratch) }

// Put returns a scratch to the pool. Scratch of a mismatched size is
// silently dropped rather than poisoning the pool.
func (p *ScratchPool) Put(s *Scratch) {
	if s != nil && s.n == p.n {
		p.pool.Put(s)
	}
}
