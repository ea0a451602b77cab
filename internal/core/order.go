package core

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"tdb/internal/digraph"
)

// orderNames maps the CLI/option-surface names to orders.
var orderNames = map[string]Order{
	"natural":     OrderNatural,
	"degree-asc":  OrderDegreeAsc,
	"degree-desc": OrderDegreeDesc,
	"random":      OrderRandom,
	"weighted":    OrderWeighted,
}

// ParseOrder resolves a candidate-order name ("natural", "degree-asc",
// "degree-desc", "random", "weighted").
func ParseOrder(s string) (Order, error) {
	if o, ok := orderNames[s]; ok {
		return o, nil
	}
	return 0, fmt.Errorf("core: unknown order %q (want natural, degree-asc, degree-desc, random or weighted)", s)
}

// vertexOrder materializes the candidate processing order for the graph.
func vertexOrder(g digraph.Adjacency, opts Options) []VID {
	return vertexOrderBuf(g, opts, nil)
}

// vertexOrderBuf is vertexOrder writing into buf when it has the right
// length (a pooled engine buffer), allocating otherwise.
func vertexOrderBuf(g digraph.Adjacency, opts Options, buf []VID) []VID {
	n := g.NumVertices()
	ids := buf
	if len(ids) != n {
		ids = make([]VID, n)
	}
	for i := range ids {
		ids[i] = VID(i)
	}
	switch opts.Order {
	case OrderNatural:
		// IDs are already ascending.
	case OrderDegreeAsc, OrderDegreeDesc:
		deg := make([]int, n)
		for v := 0; v < n; v++ {
			deg[v] = g.OutDegree(VID(v)) + g.InDegree(VID(v))
		}
		asc := opts.Order == OrderDegreeAsc
		sort.SliceStable(ids, func(i, j int) bool {
			di, dj := deg[ids[i]], deg[ids[j]]
			if di != dj {
				if asc {
					return di < dj
				}
				return di > dj
			}
			return ids[i] < ids[j] // deterministic tie-break
		})
	case OrderRandom:
		rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed^0xda3e39cb94b95bdb))
		rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	case OrderWeighted:
		w := opts.Weights // validated non-nil by Options.validate
		sort.SliceStable(ids, func(i, j int) bool {
			if w[ids[i]] != w[ids[j]] {
				return w[ids[i]] > w[ids[j]] // expensive first
			}
			return ids[i] < ids[j]
		})
	default:
		panic("core: unknown Order")
	}
	return ids
}

// pruneOrder returns the order in which a minimal pass should try to shed
// cover vertices: insertion order normally, most-expensive-first when
// weights are present.
func pruneOrder(cover []VID, opts Options) []VID {
	if opts.Weights == nil {
		return cover
	}
	out := make([]VID, len(cover))
	copy(out, cover)
	w := opts.Weights
	sort.SliceStable(out, func(i, j int) bool {
		if w[out[i]] != w[out[j]] {
			return w[out[i]] > w[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}
