package tdb

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"testing"

	"tdb/internal/gen"
)

// standIn draws a registry dataset at the given scale and renumbers it by a
// permutation drawn from seed, the way perfbench builds its workload graphs.
func standIn(t *testing.T, name string, scale float64, seed uint64) *Graph {
	t.Helper()
	d, ok := gen.DatasetByName(name)
	if !ok {
		t.Fatalf("unknown dataset %q", name)
	}
	n := max(int(float64(d.PaperV)*scale), 64)
	m := max(int(float64(d.PaperE)*scale), n)
	base := gen.PowerLaw(n, m, d.Skew, d.Reciprocity, d.Seed)
	perm := rand.New(rand.NewPCG(seed, 3)).Perm(n)
	edges := base.Edges()
	for i, e := range edges {
		edges[i] = Edge{U: VID(perm[e.U]), V: VID(perm[e.V])}
	}
	return FromEdges(n, edges)
}

// fingerprint is the FNV-64a hash of the little-endian uint32 encoding of
// the sorted vertex IDs.
func fingerprint(vs []VID) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range slices.Sorted(slices.Values(vs)) {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// edgeFingerprint hashes a graph's edge list in CSR order.
func edgeFingerprint(g *Graph) uint64 { return edgeListFingerprint(g.Edges()) }

// edgeListFingerprint is the FNV-64a hash of the little-endian uint32
// encoding of the edges, in the given order.
func edgeListFingerprint(edges []Edge) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestCoverFingerprints pins the exact cover of every algorithm × candidate
// order × k on two registry stand-ins. The bottom-up family's covers depend
// on the order in which the working graph lists live neighbors, so any
// change to the active-adjacency representation that reorders a row shows
// up here, not only as a changed cover size.
func TestCoverFingerprints(t *testing.T) {
	graphs := []struct {
		name  string
		edges uint64 // input pin: a mismatch means the generator changed, not the solver
	}{
		{"WKV", 0x57f285629a62c433},
		{"SAD", 0xd53c23a4649a3140},
	}
	algos := []Algorithm{TDB, TDBPlus, TDBPlusPlus, BUR, BURPlus}
	orders := []struct {
		name string
		o    Order
	}{{"natural", OrderNatural}, {"degree-asc", OrderDegreeAsc}, {"random", OrderRandom}}
	for _, gc := range graphs {
		g := standIn(t, gc.name, 0.05, 1)
		if got := edgeFingerprint(g); got != gc.edges {
			t.Errorf("%s stand-in: edge fingerprint %#x, want %#x", gc.name, got, gc.edges)
			continue
		}
		for _, k := range []int{3, 5} {
			for _, a := range algos {
				for _, o := range orders {
					key := fmt.Sprintf("%s/k%d/%v/%s", gc.name, k, a, o.name)
					res, err := Solve(context.Background(), g, k,
						WithAlgorithm(a), WithOrder(o.o), WithSeed(1), WithWorkers(1))
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					want, ok := coverFingerprints[key]
					if got := fingerprint(res.Cover); !ok || got != want {
						t.Errorf("%s: cover fingerprint %#x (size %d), want %#x",
							key, got, len(res.Cover), want)
					}
				}
			}
		}
	}
}

// coverFingerprints holds the covers of TestCoverFingerprints, keyed
// dataset/k/algorithm/order.
var coverFingerprints = map[string]uint64{
	"WKV/k3/TDB/natural":      0x9a1a6741065a449d,
	"WKV/k3/TDB/degree-asc":   0x2e977ef07720dd63,
	"WKV/k3/TDB/random":       0xe3ad6fb57cad1170,
	"WKV/k3/TDB+/natural":     0x9a1a6741065a449d,
	"WKV/k3/TDB+/degree-asc":  0x2e977ef07720dd63,
	"WKV/k3/TDB+/random":      0xe3ad6fb57cad1170,
	"WKV/k3/TDB++/natural":    0x9a1a6741065a449d,
	"WKV/k3/TDB++/degree-asc": 0x2e977ef07720dd63,
	"WKV/k3/TDB++/random":     0xe3ad6fb57cad1170,
	"WKV/k3/BUR/natural":      0x615fa8d07a6dad3b,
	"WKV/k3/BUR/degree-asc":   0xf3c50b725dab18a2,
	"WKV/k3/BUR/random":       0x9300a9a74f4ac1cd,
	"WKV/k3/BUR+/natural":     0xbae52470f6a91d93,
	"WKV/k3/BUR+/degree-asc":  0xadf06d678c6f2e89,
	"WKV/k3/BUR+/random":      0xd526e5e1c8d8f196,
	"WKV/k5/TDB/natural":      0xd45eeec86bb3eccf,
	"WKV/k5/TDB/degree-asc":   0x2b3cdb1858089960,
	"WKV/k5/TDB/random":       0x4408c7e816c90ad,
	"WKV/k5/TDB+/natural":     0xd45eeec86bb3eccf,
	"WKV/k5/TDB+/degree-asc":  0x2b3cdb1858089960,
	"WKV/k5/TDB+/random":      0x4408c7e816c90ad,
	"WKV/k5/TDB++/natural":    0xd45eeec86bb3eccf,
	"WKV/k5/TDB++/degree-asc": 0x2b3cdb1858089960,
	"WKV/k5/TDB++/random":     0x4408c7e816c90ad,
	"WKV/k5/BUR/natural":      0xe7b5b762a8f114c5,
	"WKV/k5/BUR/degree-asc":   0xb71bb272af9db710,
	"WKV/k5/BUR/random":       0x5b1efe2b31a78237,
	"WKV/k5/BUR+/natural":     0x88dacd02d07e7498,
	"WKV/k5/BUR+/degree-asc":  0xc3a12d04fce26fb9,
	"WKV/k5/BUR+/random":      0x1f83e1b8b21ecb93,
	"SAD/k3/TDB/natural":      0xcc8ff5a883ad77,
	"SAD/k3/TDB/degree-asc":   0xf1e9fd1bcae5b00a,
	"SAD/k3/TDB/random":       0x168a1370d5e67a02,
	"SAD/k3/TDB+/natural":     0xcc8ff5a883ad77,
	"SAD/k3/TDB+/degree-asc":  0xf1e9fd1bcae5b00a,
	"SAD/k3/TDB+/random":      0x168a1370d5e67a02,
	"SAD/k3/TDB++/natural":    0xcc8ff5a883ad77,
	"SAD/k3/TDB++/degree-asc": 0xf1e9fd1bcae5b00a,
	"SAD/k3/TDB++/random":     0x168a1370d5e67a02,
	"SAD/k3/BUR/natural":      0x6b2454ce73b8717f,
	"SAD/k3/BUR/degree-asc":   0xe01786d383ffc5b6,
	"SAD/k3/BUR/random":       0x7d055e80e3697e9e,
	"SAD/k3/BUR+/natural":     0x4236898e2393d380,
	"SAD/k3/BUR+/degree-asc":  0xb65d930018284d61,
	"SAD/k3/BUR+/random":      0x3504ae23a7ef538e,
	"SAD/k5/TDB/natural":      0x8c2ceeb366a551bb,
	"SAD/k5/TDB/degree-asc":   0x7134b62fa3c42deb,
	"SAD/k5/TDB/random":       0x73b97bc2000fd29b,
	"SAD/k5/TDB+/natural":     0x8c2ceeb366a551bb,
	"SAD/k5/TDB+/degree-asc":  0x7134b62fa3c42deb,
	"SAD/k5/TDB+/random":      0x73b97bc2000fd29b,
	"SAD/k5/TDB++/natural":    0x8c2ceeb366a551bb,
	"SAD/k5/TDB++/degree-asc": 0x7134b62fa3c42deb,
	"SAD/k5/TDB++/random":     0x73b97bc2000fd29b,
	"SAD/k5/BUR/natural":      0xbe744c4b81a274dc,
	"SAD/k5/BUR/degree-asc":   0x2811b79b301a4704,
	"SAD/k5/BUR/random":       0x78f664f40c16072d,
	"SAD/k5/BUR+/natural":     0x107734161665e010,
	"SAD/k5/BUR+/degree-asc":  0x89a0b52f23a1a69e,
	"SAD/k5/BUR+/random":      0xdbe50f6a1d90c181,
}

// TestMaintainerStreamFingerprint pins every decision the maintainer makes
// on tdbserve's write-stream shape: the SAD stand-in at scale 0.05 seeded
// with its TDB++ cover, 1200 churnBatches batches with a Reminimize after
// every eighth, then 100 more batches one update at a time through
// InsertEdge and DeleteEdge. The hash covers each batch's added vertices
// in order and its cycle-check count (one per surviving distinct insert),
// each pass's removed vertices, each single update's outcome, the insert,
// delete and cover-add counters and the sha256 of the final WriteState.
// A pass's re-test count is left out: it depends on which witness cycle a
// query happened to return, while the pass's removals do not.
func TestMaintainerStreamFingerprint(t *testing.T) {
	d, _ := DatasetByName("SAD")
	g := d.Generate(0.05)
	res, err := Solve(context.Background(), g, 5, WithAlgorithm(TDBPlusPlus), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := MaintainerFromGraph(g, 5, 3, res.Cover)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	putVIDs := func(vs []VID) {
		put(uint64(len(vs)))
		for _, v := range vs {
			put(uint64(v))
		}
	}
	checks := func() int64 {
		_, _, c, _ := m.Stats()
		return c
	}
	stream := churnBatches(g, 1300, 1)
	for i, batch := range stream[:1200] {
		before := checks()
		putVIDs(m.ApplyBatch(batch))
		put(uint64(checks() - before))
		if i%8 == 7 {
			putVIDs(m.ReminimizePass().Removed)
		}
	}
	before := checks()
	for _, batch := range stream[1200:] {
		for _, up := range batch {
			if up.Op == UpdateInsert {
				put(uint64(m.InsertEdge(up.U, up.V)))
			} else if m.DeleteEdge(up.U, up.V) {
				put(1)
			}
		}
	}
	put(uint64(checks() - before))
	ins, del, _, adds := m.Stats()
	for _, c := range []int64{ins, del, adds} {
		put(uint64(c))
	}
	state := sha256.New()
	if err := m.WriteState(state); err != nil {
		t.Fatal(err)
	}
	h.Write(state.Sum(nil))
	const want uint64 = 0x6af098d77263852
	if got := h.Sum64(); got != want {
		t.Errorf("stream fingerprint %#x (cover %d), want %#x", got, m.CoverSize(), want)
	}
}

// TestEdgeCoverFingerprints pins TDB-E's transversal on four registry
// stand-ins at scale 0.1 for k in {3, 5}.
func TestEdgeCoverFingerprints(t *testing.T) {
	for _, name := range []string{"WKV", "SAD", "EU", "GNU"} {
		d, _ := DatasetByName(name)
		g := d.Generate(0.1)
		for _, k := range []int{3, 5} {
			key := fmt.Sprintf("%s/k%d", name, k)
			res, err := Solve(context.Background(), g, k, WithEdgeCover(), WithWorkers(1))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got, want := edgeListFingerprint(res.Edges), edgeCoverFingerprints[key]; got != want {
				t.Errorf("%s: transversal fingerprint %#x (%d edges), want %#x", key, got, len(res.Edges), want)
			}
		}
	}
}

// edgeCoverFingerprints holds the transversals of TestEdgeCoverFingerprints,
// keyed dataset/k.
var edgeCoverFingerprints = map[string]uint64{
	"WKV/k3": 0x15afe39d5b1eb22a,
	"WKV/k5": 0xa3e3fd2fe9827f73,
	"SAD/k3": 0x6042b120d3145ec9,
	"SAD/k5": 0x4f33c9d2f8e77bfc,
	"EU/k3":  0x2943ff30c8aa6747,
	"EU/k5":  0x61ca91599a040858,
	"GNU/k3": 0x7775e818a3d62ed9,
	"GNU/k5": 0x22444565b9ed3fcf,
}
