package main

import (
	"fmt"
	"math/rand/v2"

	"tdb"
	"tdb/internal/dynamic"
	"tdb/internal/gen"
	"tdb/internal/scc"
)

// Problem parameters shared by every workload: the paper's default hop
// constraint with the library's default minimum cycle length.
const (
	hopK      = 5
	minLen    = 3
	batchSize = 64 // updates per waited write batch
)

// workloadSpec names the registry stand-in a workload runs on.
type workloadSpec struct {
	name    string
	dataset string
}

var workloads = []workloadSpec{
	{"solve-dense", "SAD"},
	{"solve-sparse", "EU"},
	{"serve-read", "SAD"},
	{"serve-write", "SAD"},
}

func specFor(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// makeGraph generates the workload's graph: the named dataset's registry
// draw from gen.PowerLaw (its size at the given scale, skew, reciprocity and
// registry seed) with the vertices renumbered by a permutation drawn from
// the workload seed. The seed changes the numbering, and with it the
// solver's candidate order and memory layout, but not the graph's shape, so
// runs on different seeds measure the same problem size.
func makeGraph(dataset string, scale float64, seed int64) (*tdb.Graph, error) {
	d, ok := gen.DatasetByName(dataset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	n := max(int(float64(d.PaperV)*scale), 64)
	m := max(int(float64(d.PaperE)*scale), n)
	base := gen.PowerLaw(n, m, d.Skew, d.Reciprocity, d.Seed)
	perm := rand.New(rand.NewPCG(uint64(seed), 3)).Perm(n)
	edges := base.Edges()
	for i, e := range edges {
		edges[i] = tdb.Edge{U: tdb.VID(perm[e.U]), V: tdb.VID(perm[e.V])}
	}
	return tdb.FromEdges(n, edges), nil
}

// describe fills the environment's input sizes.
func describe(env *environment, g tdb.Storage) {
	env.N, env.M = g.NumVertices(), g.NumEdges()
	r := scc.Compute(g)
	env.SCCs, env.LargestSCC = 0, 0
	for _, sz := range r.Size {
		if sz >= 2 {
			env.SCCs++
			env.LargestSCC = max(env.LargestSCC, int(sz))
		}
	}
}

// sources returns the seeded uniform-random query sources of one client.
func sources(n int, seed int64, client, count int) []tdb.VID {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(1000+client)))
	out := make([]tdb.VID, count)
	for i := range out {
		out[i] = tdb.VID(rng.IntN(n))
	}
	return out
}

// writeStream returns a fixed, seeded sequence of batches: in every batch
// three updates in four insert a random absent edge and the fourth deletes
// a random earlier insert that is still present.
func writeStream(g *tdb.Graph, batches int, seed int64) [][]dynamic.Update {
	rng := rand.New(rand.NewPCG(uint64(seed), 7))
	n := g.NumVertices()
	present := make(map[tdb.Edge]bool, g.NumEdges())
	for _, e := range g.Edges() {
		present[e] = true
	}
	var live []tdb.Edge // inserted by earlier batches and not yet deleted
	out := make([][]dynamic.Update, batches)
	for b := range out {
		batch := make([]dynamic.Update, 0, batchSize)
		var added []tdb.Edge
		for i := 0; i < batchSize; i++ {
			if i%4 == 3 && len(live) > 0 {
				j := rng.IntN(len(live))
				e := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				delete(present, e)
				batch = append(batch, dynamic.DeleteOp(e.U, e.V))
				continue
			}
			for {
				e := tdb.Edge{U: tdb.VID(rng.IntN(n)), V: tdb.VID(rng.IntN(n))}
				if e.U == e.V || present[e] {
					continue
				}
				present[e] = true
				added = append(added, e)
				batch = append(batch, dynamic.InsertOp(e.U, e.V))
				break
			}
		}
		live = append(live, added...)
		out[b] = batch
	}
	return out
}

// applyStream returns the graph after the first p batches of the stream.
func applyStream(g *tdb.Graph, stream [][]dynamic.Update, p int) *tdb.Graph {
	present := make(map[tdb.Edge]bool, g.NumEdges())
	for _, e := range g.Edges() {
		present[e] = true
	}
	for _, batch := range stream[:p] {
		for _, u := range batch {
			e := tdb.Edge{U: u.U, V: u.V}
			if u.Op == dynamic.OpInsert {
				present[e] = true
			} else {
				delete(present, e)
			}
		}
	}
	edges := make([]tdb.Edge, 0, len(present))
	for e := range present {
		edges = append(edges, e)
	}
	return tdb.FromEdges(g.NumVertices(), edges)
}
