package cycle

import "tdb/internal/digraph"

// Enumerator lists all constrained cycles of a graph, each exactly once.
// It is the repository's test oracle (covers are validated against the full
// cycle set on small graphs) and the cycle source for the DARC baseline.
//
// Deduplication uses the standard canonical-start rule: a cycle is emitted
// only from its minimum-ID vertex, and the DFS from start s never descends
// into vertices smaller than s.
type Enumerator struct {
	g      digraph.Adjacency
	k      int
	minLen int
	active []bool

	s *Scratch // onPath, path
}

// NewEnumerator creates an enumerator for cycles of length in [minLen, k]
// over the subgraph induced by active (nil = whole graph).
func NewEnumerator(g digraph.Adjacency, k, minLen int, active []bool) *Enumerator {
	return NewEnumeratorWith(g, k, minLen, active, nil)
}

// NewEnumeratorWith is NewEnumerator borrowing the DFS buffers from s (nil
// allocates fresh scratch). See Scratch for the sharing rules.
func NewEnumeratorWith(g digraph.Adjacency, k, minLen int, active []bool, s *Scratch) *Enumerator {
	validate(g, k, minLen, active)
	return &Enumerator{
		g: g, k: k, minLen: minLen, active: active,
		s: checkScratch(s, g.NumVertices()),
	}
}

func (e *Enumerator) isActive(v VID) bool {
	return e.active == nil || e.active[v]
}

// All returns every constrained cycle as a vertex sequence starting at its
// minimum vertex. Intended for small graphs: the output can be exponential.
func (e *Enumerator) All() [][]VID {
	var out [][]VID
	e.Visit(func(c []VID) bool {
		cp := make([]VID, len(c))
		copy(cp, c)
		out = append(out, cp)
		return true
	})
	return out
}

// Count returns the number of constrained cycles without materializing them.
func (e *Enumerator) Count() int64 {
	var n int64
	e.Visit(func([]VID) bool {
		n++
		return true
	})
	return n
}

// Visit calls fn for every constrained cycle; fn must not retain the slice.
// Enumeration stops early when fn returns false.
func (e *Enumerator) Visit(fn func(c []VID) bool) {
	n := e.g.NumVertices()
	for s := 0; s < n; s++ {
		if !e.isActive(VID(s)) {
			continue
		}
		e.s.onPath.nextEpoch()
		e.s.path = e.s.path[:0]
		e.s.path = append(e.s.path, VID(s))
		e.s.onPath.set(VID(s))
		if !e.visitFrom(VID(s), VID(s), 0, fn) {
			return
		}
	}
}

// visitFrom extends the path rooted at s (using only vertices > s) and
// reports whether enumeration should continue.
func (e *Enumerator) visitFrom(s, u VID, depth int, fn func([]VID) bool) bool {
	for _, w := range e.g.Out(u) {
		if w == s {
			if depth+1 >= e.minLen {
				if !fn(e.s.path) {
					return false
				}
			}
			continue
		}
		if w < s || !e.isActive(w) || e.s.onPath.get(w) {
			continue
		}
		if depth+1 > e.k-1 {
			continue
		}
		e.s.path = append(e.s.path, w)
		e.s.onPath.set(w)
		ok := e.visitFrom(s, w, depth+1, fn)
		e.s.path = e.s.path[:len(e.s.path)-1]
		e.s.onPath.unset(w)
		if !ok {
			return false
		}
	}
	return true
}

// HasAny reports whether the active subgraph contains any constrained cycle.
func (e *Enumerator) HasAny() bool {
	found := false
	e.Visit(func([]VID) bool {
		found = true
		return false
	})
	return found
}
