package tdb

// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact, backed by internal/exp at a reduced "bench"
// scale so `go test -bench=.` completes in minutes), plus micro-benchmarks
// for the primitives the paper's speedups come from. cmd/tdbbench runs the
// same experiments at the full harness scale.

import (
	"context"
	"io"
	"math/rand/v2"
	"path/filepath"
	"testing"
	"time"

	"tdb/internal/core"
	"tdb/internal/cycle"
	"tdb/internal/digraph"
	"tdb/internal/dynamic"
	"tdb/internal/exp"
	"tdb/internal/gen"
)

// benchConfig is small enough for repeated timing runs but large enough
// that algorithmic differences dominate constant overheads.
func benchConfig() exp.Config {
	c := exp.QuickConfig()
	c.Scale = 0.005
	c.SweepScale = 0.005
	c.LargeEdges = 20_000
	c.KMax = 5
	c.Timeout = 2 * time.Second
	return c
}

func runExp(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Datasets regenerates the dataset statistics table.
func BenchmarkTable2Datasets(b *testing.B) { runExp(b, "table2") }

// BenchmarkTable3 regenerates the paper's Table III: DARC-DV vs BUR+ vs
// TDB++ at k=5 over all 16 dataset stand-ins.
func BenchmarkTable3(b *testing.B) { runExp(b, "table3") }

// BenchmarkTable4 regenerates the paper's Table IV: TDB++ with and without
// 2-cycles.
func BenchmarkTable4(b *testing.B) { runExp(b, "table4") }

// BenchmarkFig6 and BenchmarkFig7 regenerate the k-sweep figures (they
// share one sweep; both tables are produced by either ID).
func BenchmarkFig6(b *testing.B) { runExp(b, "fig6") }

// BenchmarkFig7 regenerates the cover-size k-sweep (paper Fig. 7).
func BenchmarkFig7(b *testing.B) { runExp(b, "fig7") }

// BenchmarkFig8 regenerates BUR vs BUR+ runtime/size (paper Fig. 8/9).
func BenchmarkFig8(b *testing.B) { runExp(b, "fig8") }

// BenchmarkFig9 regenerates the same sweep keyed by its size table.
func BenchmarkFig9(b *testing.B) { runExp(b, "fig9") }

// BenchmarkFig10 regenerates the top-down ablation TDB/TDB+/TDB++.
func BenchmarkFig10(b *testing.B) { runExp(b, "fig10") }

// BenchmarkAblationOrder regenerates the candidate-order ablation (A1).
func BenchmarkAblationOrder(b *testing.B) { runExp(b, "order") }

// BenchmarkAblationSCC regenerates the SCC-prefilter ablation (A2).
func BenchmarkAblationSCC(b *testing.B) { runExp(b, "scc") }

// BenchmarkNoHop regenerates the unconstrained-variant experiment.
func BenchmarkNoHop(b *testing.B) { runExp(b, "nohop") }

// ---- algorithm-level benchmarks (fixed mid-size workload) ----

func benchGraph() *Graph {
	d, _ := gen.DatasetByName("WKV")
	return d.Generate(0.2) // n=1400, m~20k
}

// sequential pins the single-threaded loop, so the cover benchmarks keep
// measuring the paper's path whatever the planner would pick.
var sequential = WithStrategy(StrategySequential)

func benchCover(b *testing.B, algo Algorithm, k int) {
	b.Helper()
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Solve(context.Background(), g, k, WithAlgorithm(algo), WithOrder(OrderDegreeAsc), sequential)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.TimedOut {
			b.Fatal("unexpected timeout")
		}
	}
}

func BenchmarkCoverTDB(b *testing.B)         { benchCover(b, TDB, 5) }
func BenchmarkCoverTDBPlus(b *testing.B)     { benchCover(b, TDBPlus, 5) }
func BenchmarkCoverTDBPlusPlus(b *testing.B) { benchCover(b, TDBPlusPlus, 5) }
func BenchmarkCoverBUR(b *testing.B)         { benchCover(b, BUR, 5) }
func BenchmarkCoverBURPlus(b *testing.B)     { benchCover(b, BURPlus, 5) }
func BenchmarkCoverDARCDV(b *testing.B)      { benchCover(b, DARCDV, 4) }

// ---- primitive-level benchmarks ----

// BenchmarkActiveTraversal contrasts the two working-graph representations
// at 5% live vertices — the regime the top-down cover spends most of its
// life in. Iterate/* measures the raw inner loop (full-CSR scan filtered
// through a []bool mask vs. the view's branch-free live slice);
// Detector/* measures a full block-detector query on the same subgraph.
func BenchmarkActiveTraversal(b *testing.B) {
	g := benchGraph()
	n := g.NumVertices()
	rng := rand.New(rand.NewPCG(1, 2))
	active := make([]bool, n)
	view := digraph.NewActiveAdjacency(g, false)
	var live []VID
	for v := 0; v < n; v++ {
		if rng.IntN(20) == 0 {
			active[v] = true
			view.Activate(VID(v))
			live = append(live, VID(v))
		}
	}
	var sink int
	b.Run("Iterate/Masked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range live {
				for _, w := range g.Out(v) {
					if active[w] {
						sink += int(w)
					}
				}
			}
		}
	})
	b.Run("Iterate/View", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range live {
				for _, w := range view.ActiveOut(v) {
					sink += int(w)
				}
			}
		}
	})
	_ = sink
	b.Run("Detector/Masked", func(b *testing.B) {
		det := cycle.NewBlockDetector(g, 5, 3, active)
		for i := 0; i < b.N; i++ {
			det.HasCycleThrough(live[i%len(live)])
		}
	})
	b.Run("Detector/View", func(b *testing.B) {
		det := cycle.NewBlockDetectorView(view, 5, 3, nil)
		for i := 0; i < b.N; i++ {
			det.HasCycleThrough(live[i%len(live)])
		}
	})
}

// BenchmarkBlockDetector measures the paper's O(km) NodeNecessary query:
// /plain one query per op, /filtered one op per sweep over every vertex
// with the BFS filter (Alg. 11) on, as TDB++ queries.
func BenchmarkBlockDetector(b *testing.B) {
	g := benchGraph()
	b.Run("plain", func(b *testing.B) {
		det := cycle.NewBlockDetector(g, 5, 3, nil)
		for i := 0; i < b.N; i++ {
			det.HasCycleThrough(VID(i % g.NumVertices()))
		}
	})
	b.Run("filtered", func(b *testing.B) {
		det := cycle.NewBlockDetector(g, 5, 3, nil)
		det.Filter = true
		for i := 0; i < b.N; i++ {
			for v := 0; v < g.NumVertices(); v++ {
				det.HasCycleThrough(VID(v))
			}
		}
	})
}

// BenchmarkPlainDetector measures the unbounded-worst-case DFS detector.
func BenchmarkPlainDetector(b *testing.B) {
	g := benchGraph()
	det := cycle.NewPlainDetector(g, 5, 3, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.HasCycleThrough(VID(i % g.NumVertices()))
	}
}

// BenchmarkHasHopConstrainedCycle measures the whole-graph check at k=5,
// one-shot and on an engine, on the benchmark workload (cyclic: the first
// queries find a cycle) and on its acyclic half, the edges u -> v with
// u < v (every vertex is queried and peeled).
func BenchmarkHasHopConstrainedCycle(b *testing.B) {
	g := benchGraph()
	for _, in := range []struct {
		name string
		g    *Graph
	}{{"WKV", g}, {"WKV-acyclic", forwardHalf(g)}} {
		b.Run(in.name+"/OneShot", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				HasHopConstrainedCycle(in.g, 5)
			}
		})
		b.Run(in.name+"/Engine", func(b *testing.B) {
			e := NewEngine(in.g)
			e.HasHopConstrainedCycle(5) // builds the cached condensation
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.HasHopConstrainedCycle(5)
			}
		})
	}
}

// BenchmarkCSRBuild measures graph construction from an edge stream.
func BenchmarkCSRBuild(b *testing.B) {
	edges := benchGraph().Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromEdges(0, edges)
	}
}

// BenchmarkVerifyParallel measures the parallel validity checker used by
// tdbverify on large covers.
func BenchmarkVerifyParallel(b *testing.B) {
	g := benchGraph()
	res, err := Solve(context.Background(), g, 5, WithOrder(OrderDegreeAsc), sequential)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Verify(g, 5, 3, res.Cover, false)
		if !rep.Valid {
			b.Fatal("invalid cover")
		}
	}
}

// BenchmarkUnconstrained measures the k=n variant (paper Sec. VI-C).
func BenchmarkUnconstrained(b *testing.B) {
	d, _ := gen.DatasetByName("GNU")
	g := d.Generate(0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), g, 0, WithUnconstrained(), WithOrder(OrderDegreeAsc), sequential); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDARCEdges measures the raw edge-transversal baseline.
func BenchmarkDARCEdges(b *testing.B) {
	d, _ := gen.DatasetByName("GNU")
	g := d.Generate(0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, complete := core.DARCEdges(g, 4, 3, nil); !complete {
			b.Fatal("unexpected timeout")
		}
	}
}

// BenchmarkTDBEdges measures the top-down edge transversal on the same
// workload as BenchmarkDARCEdges — the ablation showing the paper's
// inversion also wins on DARC's native (edge) problem.
func BenchmarkTDBEdges(b *testing.B) {
	d, _ := gen.DatasetByName("GNU")
	g := d.Generate(0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), g, 4, WithEdgeCover()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoverParallel measures the SCC-partitioned parallel solver on a
// many-component workload (its best case).
func BenchmarkCoverParallel(b *testing.B) {
	g := GenPlantedCycles(30_000, 400, 3, 6, 40_000, 5).Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), g, 6, WithStrategy(StrategyParallelSCC)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSolveManyComponents measures steady-state engine solves
// under the SCC-partitioned strategy on the Email-EuAll stand-in at a tenth
// of its size (the registry's power-law draw without the minimum-degree
// padding of Dataset.Generate: n=26.5k, m=42k, hundreds of non-trivial
// SCCs). The engine carves the component subgraphs on its first solve, so
// the loop measures only the per-component covers.
func BenchmarkEngineSolveManyComponents(b *testing.B) {
	d, _ := gen.DatasetByName("EU")
	g := gen.PowerLaw(int(d.PaperV/10), int(d.PaperE/10), d.Skew, d.Reciprocity, d.Seed)
	e := NewEngine(g)
	solve := func() {
		if _, err := e.Solve(context.Background(), 5, WithStrategy(StrategyParallelSCC)); err != nil {
			b.Fatal(err)
		}
	}
	solve() // build the condensation and the component subgraphs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}

// BenchmarkCoverSequentialManyComponents is the sequential baseline for
// BenchmarkCoverParallel.
func BenchmarkCoverSequentialManyComponents(b *testing.B) {
	g := GenPlantedCycles(30_000, 400, 3, 6, 40_000, 5).Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), g, 6, sequential); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoverRepeated contrasts repeated covers over one fixed graph on
// the one-shot path (fresh O(n) scratch every run, the paper's one-shot
// setting) against the pooled Engine (the service setting). Compare the
// allocs/op columns: the engine's steady state allocates only the result.
func BenchmarkCoverRepeated(b *testing.B) {
	g := benchGraph()
	b.Run("OneShot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Solve(context.Background(), g, 5, sequential); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Engine", func(b *testing.B) {
		e := NewEngine(g)
		if _, err := e.Solve(context.Background(), 5, sequential); err != nil {
			b.Fatal(err) // warm the scratch pool
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Solve(context.Background(), 5, sequential); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSingleSCCGraph builds a graph that is ONE giant strongly connected
// component — the shape where the SCC-partitioned parallel solver gains
// nothing: a width-2 directed ring
// (ensures strong connectivity) plus random long chords and a sprinkling
// of short back-chords that close hop-constrained cycles. Vertex IDs are
// randomly relabeled so that ID order does not correlate with ring
// position (real datasets exhibit no such correlation, and with it the
// natural candidate order would make every candidate's working graph a
// contiguous arc of the ring).
func benchSingleSCCGraph(n int) *Graph {
	rng := rand.New(rand.NewPCG(99, 7))
	perm := rng.Perm(n)
	id := func(v int) VID { return VID(perm[(v%n+n)%n]) }
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(id(v), id(v+1))
		b.AddEdge(id(v), id(v+2))
	}
	// Long chords add degree noise without short cycles: the jump length
	// stays in [5, n-21], so closing via the chord plus +2 ring hops needs
	// at least 1+ceil(21/2) = 12 > k edges.
	for i := 0; i < n/3; i++ {
		u := rng.IntN(n)
		b.AddEdge(id(u), id(u+5+rng.IntN(n-25)))
	}
	for i := 0; i < n/200; i++ { // short back-chords: planted k-cycles
		u := rng.IntN(n)
		b.AddEdge(id(u), id(u-2-rng.IntN(4))) // cycle length in [3, 6]
	}
	return b.Build()
}

// BenchmarkSingleSCC measures the sequential TDB++ loop on a single-SCC
// graph, the shape where the SCC-partitioned parallel solver gains nothing.
func BenchmarkSingleSCC(b *testing.B) {
	g := benchSingleSCCGraph(60_000)
	e := NewEngine(g)
	if _, err := e.Solve(context.Background(), 8, sequential); err != nil {
		b.Fatal(err) // warm the scratch pool
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Solve(context.Background(), 8, sequential)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.TimedOut {
			b.Fatal("unexpected timeout")
		}
	}
}

// maintainerStream is the shared power-law churn workload of the dynamic
// benchmarks: a right-skewed edge stream over 10k vertices, the shape of
// the paper's fraud-transfer traffic.
func maintainerStream() []Edge {
	return GenPowerLaw(10_000, 60_000, 2.2, 0.3, 13).Edges()
}

// BenchmarkMaintainerInsert measures amortized dynamic insertion cost with
// cover maintenance (the incremental alternative to recomputation) on the
// power-law churn workload.
func BenchmarkMaintainerInsert(b *testing.B) {
	stream := maintainerStream()
	m := NewMaintainer(10_000, 5, 3)
	j := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j == len(stream) {
			b.StopTimer()
			m = NewMaintainer(10_000, 5, 3)
			j = 0
			b.StartTimer()
		}
		e := stream[j]
		j++
		m.InsertEdge(e.U, e.V)
	}
}

// BenchmarkMaintainerInsertBatch is the same stream applied through
// ApplyBatch in 256-update batches, each batch's deferred queries run in
// order after its edge changes. One op is one batch.
func BenchmarkMaintainerInsertBatch(b *testing.B) {
	const batch = 256
	stream := maintainerStream()
	ups := make([]Update, len(stream))
	for i, e := range stream {
		ups[i] = InsertOp(e.U, e.V)
	}
	m := NewMaintainer(10_000, 5, 3)
	j := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j+batch > len(ups) {
			b.StopTimer()
			m = NewMaintainer(10_000, 5, 3)
			j = 0
			b.StartTimer()
		}
		m.ApplyBatch(ups[j : j+batch])
		j += batch
	}
}

// BenchmarkMaintainerChurn measures steady-state mixed traffic: ~70%
// inserts, ~30% deletes of earlier edges, with a witness-indexed Reminimize
// every 4096 updates. One op is one update (Reminimize cost amortized in).
func BenchmarkMaintainerChurn(b *testing.B) {
	stream := maintainerStream()
	// A deterministic churn script: inserts walk the stream; every third
	// step deletes the edge inserted 64 steps earlier.
	m := NewMaintainer(10_000, 5, 3)
	j := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j == len(stream) {
			b.StopTimer()
			m = NewMaintainer(10_000, 5, 3)
			j = 0
			b.StartTimer()
		}
		if i%3 == 2 && j >= 64 {
			e := stream[j-64]
			m.DeleteEdge(e.U, e.V)
		} else {
			e := stream[j]
			j++
			m.InsertEdge(e.U, e.V)
		}
		if i%4096 == 4095 {
			m.Reminimize()
		}
	}
}

// sadStandIn is the Slashdot stand-in at a tenth of its published size
// (~8.2k vertices, ~95k edges): the graph tdbserve's write benchmark serves.
func sadStandIn(b *testing.B) *Graph {
	d, ok := DatasetByName("SAD")
	if !ok {
		b.Fatal("no SAD stand-in")
	}
	return d.Generate(0.1)
}

// churnBatches is a seeded write stream over g in 64-update batches: three
// updates in four insert a random absent edge, the fourth deletes an
// earlier insert still present (tdbserve's write-benchmark shape).
func churnBatches(g *Graph, batches int, seed uint64) [][]Update {
	rng := rand.New(rand.NewPCG(seed, 7))
	n := g.NumVertices()
	present := make(map[Edge]bool, g.NumEdges())
	for _, e := range g.Edges() {
		present[e] = true
	}
	var live []Edge
	out := make([][]Update, batches)
	for i := range out {
		batch := make([]Update, 0, 64)
		for j := 0; j < 64; j++ {
			if j%4 == 3 && len(live) > 0 {
				k := rng.IntN(len(live))
				e := live[k]
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				delete(present, e)
				batch = append(batch, DeleteOp(e.U, e.V))
				continue
			}
			for {
				e := Edge{U: VID(rng.IntN(n)), V: VID(rng.IntN(n))}
				if e.U != e.V && !present[e] {
					present[e] = true
					live = append(live, e)
					batch = append(batch, InsertOp(e.U, e.V))
					break
				}
			}
		}
		out[i] = batch
	}
	return out
}

// BenchmarkMaintainerCompact measures one compaction of the maintainer's
// overlay into a fresh CSR on the SAD stand-in, in two cases:
//
//   - dirty: 240 write batches plus 1920 deletions of base edges (~17k
//     updates), so nearly every row was touched: the worst case.
//   - publish: 8 batches of 64 updates, the edits tdbserve folds at each
//     publish (every 512 updates by default).
//
// The cover holds every vertex, so building the overlay runs no cycle
// search; that setup is untimed.
func BenchmarkMaintainerCompact(b *testing.B) {
	g := sadStandIn(b)
	all := make([]VID, g.NumVertices())
	for v := range all {
		all[v] = VID(v)
	}
	dirty := churnBatches(g, 240, 1)
	base := g.Edges()
	rng := rand.New(rand.NewPCG(2, 9))
	for i := range dirty {
		for j := 0; j < 8; j++ { // deletions of base edges
			e := base[rng.IntN(len(base))]
			dirty[i] = append(dirty[i], DeleteOp(e.U, e.V))
		}
	}
	for _, tc := range []struct {
		name   string
		stream [][]Update
	}{{"dirty", dirty}, {"publish", churnBatches(g, 8, 1)}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := MaintainerFromGraph(g, 5, 3, all)
				if err != nil {
					b.Fatal(err)
				}
				for _, batch := range tc.stream {
					m.ApplyBatch(batch)
				}
				if m.Compactions() != 0 {
					b.Fatal("the policy compacted during setup")
				}
				b.StartTimer()
				m.Snapshot()
			}
		})
	}
}

// BenchmarkRecoverReplay measures WAL recovery's replay on the SAD
// stand-in: a recorded tail of 1000 64-update batches with the cover
// vertices each one added, replayed onto the seed state without cycle
// searches in one ReplayBatches call (one sort and one merge into a fresh
// CSR), then serialized as recovery's post-replay checkpoint. One op is
// the whole tail.
func BenchmarkRecoverReplay(b *testing.B) {
	g := sadStandIn(b)
	res, err := core.Compute(g, core.TDBPlusPlus, core.Options{K: 5, MinLen: 3})
	if err != nil {
		b.Fatal(err)
	}
	live, err := MaintainerFromGraph(g, 5, 3, res.Cover)
	if err != nil {
		b.Fatal(err)
	}
	updates := churnBatches(g, 1000, 1)
	tail := make([]dynamic.Batch, len(updates))
	for i, batch := range updates {
		tail[i] = dynamic.Batch{GrowTo: live.NumVertices(), Updates: batch, Added: live.ApplyBatch(batch)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := MaintainerFromGraph(g, 5, 3, res.Cover)
		if err != nil {
			b.Fatal(err)
		}
		if applied, err := m.ReplayBatches(tail); err != nil || applied != len(tail) {
			b.Fatalf("replayed %d of %d batches: %v", applied, len(tail), err)
		}
		if err := m.WriteState(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenumberedSolve measures the cache-aware renumbering modes on
// a single-SCC graph whose vertex IDs were scrambled by a random
// permutation — the arbitrary-numbering regime real edge lists arrive in,
// where a locality permutation has something to recover. The graph is
// renumbered once, at ingest, and the engine solves the renumbered graph
// in its natural order, so each mode also visits the candidates in a
// different sequence and may return a different (equally valid) cover.
// On inputs whose numbering is already local (the synthetic generators)
// the modes measure as a wash; degree renumbering buys ~5-8% here.
func BenchmarkRenumberedSolve(b *testing.B) {
	base := benchSingleSCCGraph(60_000)
	rng := rand.New(rand.NewPCG(99, 99^0xabcdef12345))
	perm := make([]VID, base.NumVertices())
	for i := range perm {
		perm[i] = VID(i)
	}
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	g := base.Renumber(perm)
	for _, tc := range []struct {
		name string
		mode Renumbering
	}{{"none", RenumberNone}, {"degree", RenumberDegree}, {"bfs", RenumberBFS}} {
		b.Run(tc.name, func(b *testing.B) {
			e := NewEngine(g.Renumber(RenumberPerm(g, tc.mode)))
			opts := []Option{WithWorkers(1)}
			ctx := context.Background()
			if _, err := e.Solve(ctx, 8, opts...); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Solve(ctx, 8, opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoverStorage is the storage-placement comparison on the WKV
// reference workload: the same pooled-engine solve against the in-memory
// CSR and against the memory-mapped TDBCSR1 backend. With the file in
// page cache (as here) the gap is the cost of the seam itself; the mapped
// column is what a larger-than-RAM graph pays per solve even before any
// page faults.
func BenchmarkCoverStorage(b *testing.B) {
	g := benchGraph()
	path := filepath.Join(b.TempDir(), "wkv.tdbcsr")
	if err := SaveMapped(path, g); err != nil {
		b.Fatal(err)
	}
	mg, err := OpenMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	defer mg.Close()

	run := func(b *testing.B, e *Engine) {
		if _, err := e.Solve(context.Background(), 5, sequential); err != nil {
			b.Fatal(err) // warm the scratch pool
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Solve(context.Background(), 5, sequential); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("memory", func(b *testing.B) { run(b, NewEngine(g)) })
	b.Run("mapped", func(b *testing.B) { run(b, NewStorageEngine(mg)) })
}
