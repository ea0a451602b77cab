// Package graphstat profiles directed graphs: the quantities that drive
// cycle-cover difficulty (degree skew, edge reciprocity, SCC structure,
// and the short-cycle length spectrum). Used by cmd/tdbstat and to sanity-
// check that the synthetic dataset stand-ins match their targets.
package graphstat

import (
	"fmt"
	"io"
	"math"
	"sort"

	"tdb/internal/cycle"
	"tdb/internal/digraph"
	"tdb/internal/scc"
)

// Profile summarizes a directed graph.
type Profile struct {
	N, M int
	// AvgOutDegree is m/n; MaxOutDegree/MaxInDegree the extremes.
	AvgOutDegree              float64
	MaxOutDegree, MaxInDegree int
	// DegreeP50/P90/P99 are percentiles of the total (in+out) degree.
	DegreeP50, DegreeP90, DegreeP99 int
	// Reciprocity is the fraction of edges whose reverse edge also exists.
	Reciprocity float64
	// SelfLoops counts (u, u) edges (zero for Builder-made graphs).
	SelfLoops int
	// SCCs is the number of strongly connected components; LargestSCC its
	// maximum size; CyclicVertices the number of vertices in non-trivial
	// components (an upper bound on any cover's support).
	SCCs, LargestSCC, CyclicVertices int
	// CyclesByLength[l] counts simple cycles of length l for l <= the
	// profiled k (exact, possibly truncated by MaxCycles).
	CyclesByLength map[int]int64
	// CyclesTruncated marks that cycle counting stopped at MaxCycles.
	CyclesTruncated bool
}

// Options tunes Compute.
type Options struct {
	// K bounds the cycle-length spectrum (0 disables cycle counting).
	K int
	// MaxCycles stops the spectrum count after this many cycles
	// (default 1e6) — counting is #P-hard in general.
	MaxCycles int64
}

// Compute profiles g.
func Compute(g digraph.Adjacency, opts Options) *Profile {
	n := g.NumVertices()
	p := &Profile{N: n, M: g.NumEdges()}
	if n > 0 {
		p.AvgOutDegree = float64(p.M) / float64(n)
	}

	total := make([]int, n)
	recip := 0
	for v := 0; v < n; v++ {
		od, id := g.OutDegree(digraph.VID(v)), g.InDegree(digraph.VID(v))
		total[v] = od + id
		if od > p.MaxOutDegree {
			p.MaxOutDegree = od
		}
		if id > p.MaxInDegree {
			p.MaxInDegree = id
		}
		for _, w := range g.Out(digraph.VID(v)) {
			if w == digraph.VID(v) {
				p.SelfLoops++
			} else if digraph.HasArc(g, w, digraph.VID(v)) {
				recip++
			}
		}
	}
	if p.M > 0 {
		p.Reciprocity = float64(recip) / float64(p.M)
	}
	sort.Ints(total)
	pct := func(q float64) int {
		if n == 0 {
			return 0
		}
		// Nearest-rank percentile: ceil(q * (n-1)).
		i := int(math.Ceil(q * float64(n-1)))
		return total[i]
	}
	p.DegreeP50, p.DegreeP90, p.DegreeP99 = pct(0.50), pct(0.90), pct(0.99)

	comps := scc.Compute(g)
	p.SCCs = comps.NumComponents()
	for _, s := range comps.Size {
		if int(s) > p.LargestSCC {
			p.LargestSCC = int(s)
		}
		if s >= 2 {
			p.CyclicVertices += int(s)
		}
	}

	if opts.K >= 2 {
		maxCycles := opts.MaxCycles
		if maxCycles <= 0 {
			maxCycles = 1_000_000
		}
		p.CyclesByLength = map[int]int64{}
		var seen int64
		cycle.NewEnumerator(g, opts.K, 2, nil).Visit(func(c []digraph.VID) bool {
			p.CyclesByLength[len(c)]++
			seen++
			if seen >= maxCycles {
				p.CyclesTruncated = true
				return false
			}
			return true
		})
	}
	return p
}

// Fprint renders the profile as aligned text.
func (p *Profile) Fprint(w io.Writer) {
	fmt.Fprintf(w, "vertices            %d\n", p.N)
	fmt.Fprintf(w, "edges               %d\n", p.M)
	fmt.Fprintf(w, "avg out-degree      %.2f\n", p.AvgOutDegree)
	fmt.Fprintf(w, "max out/in degree   %d / %d\n", p.MaxOutDegree, p.MaxInDegree)
	fmt.Fprintf(w, "degree p50/p90/p99  %d / %d / %d\n", p.DegreeP50, p.DegreeP90, p.DegreeP99)
	fmt.Fprintf(w, "reciprocity         %.3f\n", p.Reciprocity)
	fmt.Fprintf(w, "self-loops          %d\n", p.SelfLoops)
	fmt.Fprintf(w, "SCCs                %d (largest %d; %d vertices on cycles)\n",
		p.SCCs, p.LargestSCC, p.CyclicVertices)
	if p.CyclesByLength != nil {
		lengths := make([]int, 0, len(p.CyclesByLength))
		for l := range p.CyclesByLength {
			lengths = append(lengths, l)
		}
		sort.Ints(lengths)
		for _, l := range lengths {
			fmt.Fprintf(w, "cycles of length %-2d %d\n", l, p.CyclesByLength[l])
		}
		if p.CyclesTruncated {
			fmt.Fprintln(w, "cycle counts truncated (MaxCycles reached)")
		}
	}
}

// Locality summarizes how the vertex NUMBERING interacts with the CSR
// layout — the quantities cache-aware renumbering (digraph.RenumberPerm)
// tries to shrink. Per directed edge (u, v) the numbering distance is
// |u - v|: following the edge jumps that far across every VID-indexed
// array (adjacency rows, marks, masks), so small distances
// keep traversals inside cached lines. Bandwidth is the worst such jump —
// the classical adjacency-matrix bandwidth Cuthill-McKee minimizes.
type Locality struct {
	// AvgNeighborDist is the mean |u - v| over all edges.
	AvgNeighborDist float64
	// P90NeighborDist is the 90th-percentile edge distance.
	P90NeighborDist int
	// Bandwidth is the maximum edge distance.
	Bandwidth int
}

// ComputeLocality measures the numbering locality of g's current layout.
func ComputeLocality(g digraph.Adjacency) Locality {
	var l Locality
	m := g.NumEdges()
	if m == 0 {
		return l
	}
	dists := make([]int, 0, m)
	var sum float64
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Out(digraph.VID(u)) {
			d := int(v) - u
			if d < 0 {
				d = -d
			}
			dists = append(dists, d)
			sum += float64(d)
		}
	}
	sort.Ints(dists)
	l.AvgNeighborDist = sum / float64(m)
	l.P90NeighborDist = dists[int(math.Ceil(0.90*float64(m-1)))]
	l.Bandwidth = dists[m-1]
	return l
}

// Fprint renders the locality stats as aligned text; label names the
// layout (e.g. "input", "degree", "bfs").
func (l Locality) Fprint(w io.Writer, label string) {
	fmt.Fprintf(w, "locality[%s]  avg dist %.1f  p90 %d  bandwidth %d\n",
		label, l.AvgNeighborDist, l.P90NeighborDist, l.Bandwidth)
}
