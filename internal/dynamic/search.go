package dynamic

import "slices"

// Bounded cycle-existence queries over the hybrid CSR+delta adjacency.
//
// The insertion-time question is: does the just-inserted edge (u, v) lie
// on a cycle of length in [minLen, k] whose other vertices are all
// uncovered? Equivalently, is there a simple uncovered path v -> ... -> u
// of length in [minLen-1, k-1]?
//
// Two tiers answer it:
//
//  1. A bounded meet-in-the-middle BFS (a backward ball around u, then
//     forward levels from v, both with the covered vertices as the mask)
//     computes d0, the shortest uncovered path length from v to u.
//     Shortest paths are simple, so d0 in [minLen-1, k-1] certifies YES
//     outright, and d0 > k-1 (or unreachable) certifies NO — both in
//     O(min(m, k-hop frontier)).
//  2. Only d0 < minLen-1 is ambiguous (a shorter-than-minLen walk exists,
//     e.g. the 2-cycle of the paper's Example 2 under minLen=3); that
//     remainder runs an iterative DFS pruned by exact backward BFS
//     distances (a state survives only if it can still close within the
//     hop budget), with explored states capped. On cap the answer is
//     conservatively YES: the caller covers an endpoint that may not be
//     necessary, keeping validity unconditional and leaving minimality to
//     the next Reminimize.
//
// A YES from either tier leaves the cycle it found in m.cyc: the shortest
// path (the BFS halves keep parent pointers) or the DFS stack, closed by
// the new edge. It becomes the covered endpoint's witness (witness.go). A
// capped DFS found no cycle, so its endpoint is covered without one.
//
// All scratch is epoch-stamped: every traversal bumps its epoch, so marks
// abandoned by early returns are invalidated structurally — there is no
// unmark bookkeeping to get wrong (the seed maintainer leaked an on-path
// bit on exactly such a path).

// maxDFSStates caps the states the ambiguous-regime DFS may explore before
// giving a conservative answer. Bounded simple-path existence is NP-hard
// in general; the cap keeps the worst case linear while real workloads
// (shallow k, sparse uncovered regions) never come near it. It is a
// variable only so tests can force the cap.
var maxDFSStates = 1 << 17

// pathFrame is one level of the iterative DFS stack; the frame's neighbor
// row lives in rows[depth].
type pathFrame struct {
	v   VID
	idx int
}

// edgeCreatesCycle reports whether a cycle of length in [minLen, k]
// through the edge (u, v) exists in the subgraph of uncovered vertices
// (both endpoints are uncovered by contract). On YES, cyc is such a cycle,
// u first and v second, in scratch that the next search overwrites; it is
// nil when the answer is the capped DFS's conservative YES.
func (m *Maintainer) edgeCreatesCycle(u, v VID) (found bool, cyc []VID) {
	lo, hi := m.minLen-1, m.k-1
	d0 := m.shortestLivePath(v, u, hi)
	if d0 < 0 {
		return false, nil // every return path is longer than k-1
	}
	if d0 >= lo {
		return true, m.cyc // the shortest path is simple: a certificate
	}
	return m.boundedPathDFS(v, u, lo, hi)
}

// shortestLivePath returns the length of the shortest path src -> dst over
// uncovered vertices (dst is touched only as the endpoint, never
// expanded), or -1 when every such path is longer than maxLen. Self-loops
// fall to the visited check. On success m.cyc holds dst and then the path
// from src up to the vertex before dst: the cycle the edge dst -> src
// closes.
//
// The search meets in the middle. It scans src's row first, which settles
// the common case of a direct edge or no live first hop. Otherwise a
// backward ball from dst to maxLen/2 hops records exact completions in
// distB, and forward levels from src run up to maxLen-maxLen/2: a vertex
// x at forward level f inside the ball closes a walk of length
// f+distB(x). On the shortest path, the vertex maxLen/2 hops before dst
// (or the first hop, when the path is shorter) is such an x at a level the
// search reaches, so the minimum over the closed walks is exact.
func (m *Maintainer) shortestLivePath(src, dst VID, maxLen int) int {
	if maxLen < 1 {
		return -1
	}
	m.ensureScratch()
	mk := m.nextMark()
	m.mark[src], m.mark[dst] = mk, mk // dst never joins a forward level
	fq := m.nextQ[:0]
	m.rowBuf = m.outInto(src, m.rowBuf[:0])
	for _, w := range m.rowBuf {
		if w == dst {
			m.nextQ = fq[:0]
			m.cyc = append(m.cyc[:0], dst, src)
			return 1
		}
		if m.covered[w] || m.mark[w] == mk {
			continue
		}
		m.mark[w] = mk
		m.fpar[w] = src
		fq = append(fq, w)
	}
	if len(fq) == 0 || maxLen == 1 {
		m.nextQ = fq[:0]
		return -1
	}

	ball := maxLen / 2
	bk := m.nextBmark()
	m.bmark[dst] = bk
	m.distB[dst] = 0
	bq := append(m.queue[:0], dst)
	for dist, lo := 1, 0; dist <= ball && lo < len(bq); dist++ {
		hi := len(bq)
		for _, u := range bq[lo:hi] {
			m.rowBuf = m.inInto(u, m.rowBuf[:0])
			for _, w := range m.rowBuf {
				if m.covered[w] || m.bmark[w] == bk {
					continue
				}
				m.bmark[w] = bk
				m.distB[w] = int32(dist)
				m.bnext[w] = u
				bq = append(bq, w)
			}
		}
		lo = hi
	}
	m.queue = bq[:0]

	// fq holds the forward levels back to back; fq[lo:hi] is level f.
	best, meet := maxLen+1, dst
	deepest := maxLen - ball
	for f, lo := 1, 0; f <= deepest && lo < len(fq) && best > f+1; f++ {
		hi := len(fq)
		for _, x := range fq[lo:hi] {
			if m.bmark[x] == bk && f+int(m.distB[x]) < best {
				best, meet = f+int(m.distB[x]), x
			}
			if f == deepest {
				continue // the deepest level is only met, never expanded
			}
			m.rowBuf = m.outInto(x, m.rowBuf[:0])
			for _, w := range m.rowBuf {
				if m.covered[w] || m.mark[w] == mk {
					continue
				}
				m.mark[w] = mk
				m.fpar[w] = x
				fq = append(fq, w)
			}
		}
		lo = hi
	}
	m.nextQ = fq[:0]
	if best > maxLen {
		return -1
	}
	// The walk src ~> meet ~> dst has the shortest length, so it is a
	// simple path: parents back to src, then next hops on to dst.
	c := append(m.cyc[:0], dst)
	for x := meet; x != src; x = m.fpar[x] {
		c = append(c, x)
	}
	c = append(c, src)
	slices.Reverse(c[1:])
	for x := m.bnext[meet]; x != dst; x = m.bnext[x] {
		c = append(c, x)
	}
	m.cyc = c
	return best
}

// boundedPathDFS reports whether a simple uncovered path src -> dst with
// length in [lo, hi] exists. Called only in the ambiguous regime (the
// shortest path is below lo). A backward BFS from dst first computes
// distB, the exact shortest uncovered completion x -> dst; the DFS then
// expands a state only if depth+1+distB <= hi, and returns a conservative
// true once maxDFSStates states were explored. A path it finds comes back
// as cyc (dst, then the path from src), as in shortestLivePath; the
// capped answer has none.
func (m *Maintainer) boundedPathDFS(src, dst VID, lo, hi int) (found bool, cyc []VID) {
	m.ensureScratch()

	// Backward distances up to hi-1 (every useful intermediate state needs
	// a completion of at most hi-1 hops).
	bk := m.nextBmark()
	m.bmark[dst] = bk
	m.distB[dst] = 0
	q := append(m.queue[:0], dst)
	next := m.nextQ[:0]
	for dist := 0; dist < hi-1 && len(q) > 0; dist++ {
		next = next[:0]
		for _, u := range q {
			m.rowBuf = m.inInto(u, m.rowBuf[:0])
			for _, w := range m.rowBuf {
				if m.covered[w] || m.bmark[w] == bk {
					continue
				}
				m.bmark[w] = bk
				m.distB[w] = int32(dist + 1)
				next = append(next, w)
			}
		}
		q, next = next, q
	}
	m.queue, m.nextQ = q[:0], next[:0]

	// Iterative bounded DFS. On-path marking uses the current mark epoch;
	// popping writes 0, which can never equal a live epoch.
	if len(m.rows) <= hi {
		m.rows = append(m.rows, make([][]VID, hi+1-len(m.rows))...)
	}
	mk := m.nextMark()
	m.mark[src] = mk
	m.rows[0] = m.outInto(src, m.rows[0][:0])
	m.stack = append(m.stack[:0], pathFrame{v: src})
	states := 0
	for len(m.stack) > 0 {
		depth := len(m.stack) - 1
		fr := &m.stack[depth]
		row := m.rows[depth]
		if fr.idx >= len(row) {
			m.mark[fr.v] = 0
			m.stack = m.stack[:depth]
			continue
		}
		w := row[fr.idx]
		fr.idx++
		if w == dst {
			if d := depth + 1; d >= lo && d <= hi {
				m.cyc = append(m.cyc[:0], dst)
				for _, f := range m.stack {
					m.cyc = append(m.cyc, f.v)
				}
				return true, m.cyc
			}
			continue // too short to close; dst never joins the path
		}
		if m.covered[w] || m.mark[w] == mk {
			continue
		}
		if m.bmark[w] != bk || depth+1+int(m.distB[w]) > hi {
			continue // cannot close within the hop budget
		}
		states++
		if states > maxDFSStates {
			return true, nil // conservative: cover rather than keep searching
		}
		m.mark[w] = mk
		m.rows[depth+1] = m.outInto(w, m.rows[depth+1][:0])
		m.stack = append(m.stack, pathFrame{v: w})
	}
	return false, nil
}

// outInto appends u's live out-neighbors to buf and returns it: the base
// CSR row minus tombstones, then the inserted delta row. After a
// compaction this is exactly the flat CSR row.
func (m *Maintainer) outInto(u VID, buf []VID) []VID {
	if int(u) < m.base.NumVertices() {
		buf = appendLive(buf, m.base.Out(u), m.delOut[u])
	}
	return append(buf, m.addOut[u]...)
}

// inInto is the backward counterpart of outInto.
func (m *Maintainer) inInto(u VID, buf []VID) []VID {
	if int(u) < m.base.NumVertices() {
		buf = appendLive(buf, m.base.In(u), m.delIn[u])
	}
	return append(buf, m.addIn[u]...)
}

// appendLive appends row minus dels to buf — a two-pointer merge over the
// two sorted lists.
func appendLive(buf, row, dels []VID) []VID {
	if len(dels) == 0 {
		return append(buf, row...)
	}
	j := 0
	for _, w := range row {
		for j < len(dels) && dels[j] < w {
			j++
		}
		if j < len(dels) && dels[j] == w {
			continue
		}
		buf = append(buf, w)
	}
	return buf
}

// ensureScratch sizes the traversal scratch to the current vertex count.
// Fresh arrays carry stamp 0, which no live epoch ever equals.
func (m *Maintainer) ensureScratch() {
	if len(m.mark) >= m.n {
		return
	}
	m.mark = make([]uint32, m.n)
	m.bmark = make([]uint32, m.n)
	m.distB = make([]int32, m.n)
	m.fpar = make([]VID, m.n)
	m.bnext = make([]VID, m.n)
}

// nextMark advances the forward/on-path epoch, clearing the stamps on the
// (once per 2^32 traversals) wraparound.
func (m *Maintainer) nextMark() uint32 {
	m.mepoch++
	if m.mepoch == 0 {
		clear(m.mark)
		m.mepoch = 1
	}
	return m.mepoch
}

// nextBmark advances the backward-distance epoch under the same rules.
func (m *Maintainer) nextBmark() uint32 {
	m.bepoch++
	if m.bepoch == 0 {
		clear(m.bmark)
		m.bepoch = 1
	}
	return m.bepoch
}
