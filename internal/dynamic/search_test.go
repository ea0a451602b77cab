package dynamic

import (
	"math/rand/v2"
	"testing"

	"tdb/internal/digraph"
)

// forwardShortestLivePath is the single-direction form of shortestLivePath:
// a forward BFS from src to maxLen levels that stops at the first level
// touching dst. It is kept as the reference the meet-in-the-middle search
// must reproduce exactly.
func (m *Maintainer) forwardShortestLivePath(src, dst VID, maxLen int) int {
	m.ensureScratch()
	mk := m.nextMark()
	m.mark[src] = mk
	q := []VID{src}
	found := -1
	for dist := 0; dist < maxLen && len(q) > 0 && found < 0; dist++ {
		var next []VID
		for _, u := range q {
			for _, w := range m.outInto(u, nil) {
				if w == dst {
					found = dist + 1
					break
				}
				if m.covered[w] || m.mark[w] == mk {
					continue
				}
				m.mark[w] = mk
				next = append(next, w)
			}
			if found >= 0 {
				break
			}
		}
		q = next
	}
	return found
}

// checkLivePath fails unless m.cyc holds dst and then a simple path of d
// hops from src to dst over live edges, with every vertex but dst (which
// the search never expands) and src (the caller's) uncovered.
func checkLivePath(t *testing.T, m *Maintainer, src, dst VID, d int) {
	t.Helper()
	c := m.cyc
	if len(c) != d+1 || c[0] != dst || c[1] != src {
		t.Fatalf("%d->%d: path %v for length %d", src, dst, c, d)
	}
	seen := map[VID]bool{}
	for i, x := range c {
		next := c[(i+1)%len(c)]
		if seen[x] || (i > 1 && m.covered[x]) || (i > 0 && !m.HasEdge(x, next)) {
			t.Fatalf("%d->%d: path %v is not a simple uncovered live path", src, dst, c)
		}
		seen[x] = true
	}
}

// The bidirectional search must return the forward BFS's d0 for every
// ordered pair on random maintainers (CSR base plus insert/tombstone
// deltas) with random covered sets, for every hop budget the maintainer
// uses and a few beyond it, and a shortest path to go with it.
func TestShortestLivePathMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 91))
	pairs := 0
	for iter := 0; iter < 60; iter++ {
		n := 3 + rng.IntN(25)
		b := digraph.NewBuilder(n)
		for i := rng.IntN(3 * n); i > 0; i-- {
			b.AddEdge(VID(rng.IntN(n)), VID(rng.IntN(n)))
		}
		minLen := 2 + iter%2
		k := 3 + rng.IntN(6)
		m, err := FromGraph(b.Build(), k, minLen, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := rng.IntN(2 * n); i > 0; i-- {
			u, v := VID(rng.IntN(n)), VID(rng.IntN(n))
			if rng.IntN(3) == 0 {
				m.DeleteEdge(u, v)
			} else {
				m.InsertEdge(u, v)
			}
		}
		for v := range m.covered {
			m.covered[v] = rng.IntN(4) == 0
		}
		for _, maxLen := range []int{k - 1, 1, 2, 2 * k} {
			for src := VID(0); int(src) < n; src++ {
				for dst := VID(0); int(dst) < n; dst++ {
					want := m.forwardShortestLivePath(src, dst, maxLen)
					got := m.shortestLivePath(src, dst, maxLen)
					if got != want {
						t.Fatalf("iter=%d k=%d maxLen=%d %d->%d: got %d want %d\ncovered=%v",
							iter, k, maxLen, src, dst, got, want, m.covered)
					}
					if got > 0 && src != dst { // the maintainer never asks src == dst
						checkLivePath(t, m, src, dst, got)
					}
					pairs++
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no pairs compared")
	}
}
