package exp

import (
	"fmt"
	"time"

	"tdb/internal/core"
	"tdb/internal/cycle"
	"tdb/internal/digraph"
	"tdb/internal/gen"
)

// paperTable3 is the paper's Table III (k=5, full-size datasets, C++ on a
// 36-core Xeon): cover size and seconds for DARC-DV, BUR+, TDB++. Used only
// for the printed comparison notes; -1 marks "could not complete".
var paperTable3 = map[string][6]float64{
	//               DARC size, DARC s, BUR+ size, BUR+ s, TDB++ size, TDB++ s
	"WKV":  {490, 53.8, 469, 402.8, 491, 0.41},
	"ASC":  {620, 2.42, 607, 44.01, 612, 0.11},
	"GNU":  {184, 1.3, 180, 1.49, 193, 0.69},
	"EU":   {622, 114.7, 609, 702.1, 627, 1.25},
	"SAD":  {6377, 440.1, 6005, 4717, 6380, 3.13},
	"WND":  {27067, 29916.8, 23853, 28953.3, 24290, 2.67},
	"CT":   {1621, 37.03, 1610, 43, 1611, 16.2},
	"WST":  {31253, 140.7, 30811, 275.6, 31148, 2.99},
	"LOAN": {332, 184.5, 320, 450.7, 347, 127.9},
	"WIT":  {7040, 2296.8, 6923, 4708.3, 6894, 56.3},
	"WGO":  {130382, 42.2, 129009, 110.8, 129421, 5.99},
	"WBS":  {98570, 3571.4, 94817, 12739, 100668, 6.96},
	"FLK":  {-1, -1, -1, -1, 206912, 92.3},
	"LJ":   {-1, -1, -1, -1, 39183, 20466.8},
	"WKP":  {-1, -1, -1, -1, 685759, 4132},
	"TW":   {-1, -1, -1, -1, 3731522, 89634},
}

// paperTable4 is the paper's Table IV: TDB++ cover sizes at k=5 without and
// with 2-cycles, and the growth ratio.
var paperTable4 = map[string][3]float64{
	"WKV": {491, 714, 1.45}, "ASC": {612, 5285, 8.64}, "GNU": {193, 222, 1.15},
	"EU": {627, 1270, 2.03}, "SAD": {6380, 27461, 4.30}, "WND": {24290, 51466, 2.12},
	"CT": {1611, 7615, 4.73}, "WST": {31148, 116065, 3.73}, "LOAN": {347, 568, 1.64},
	"WIT": {6894, 21781, 3.16}, "WGO": {129421, 217799, 1.68}, "WBS": {100668, 256281, 2.55},
}

// Table2 reports the generated stand-in sizes next to the paper's Table II.
func Table2(cfg Config) *Table {
	t := &Table{
		ID:    "table2",
		Title: "dataset stand-ins vs paper Table II (generated at harness scale)",
		Columns: []string{
			"paper|V|", "paper|E|", "gen|V|", "gen|E|", "gen davg",
		},
		Plain: true,
	}
	for _, d := range gen.Datasets() {
		g := cfg.genDataset(d, false)
		enc := func(x int) Cell { return Cell{Size: x} }
		t.Rows = append(t.Rows, Row{Dataset: d.Name, K: cfg.K, Cells: []Cell{
			enc(int(d.PaperV)), enc(int(d.PaperE)),
			enc(g.NumVertices()), enc(g.NumEdges()),
			{Size: int(2 * g.AvgDegree())}, // Table II davg counts in+out
		}})
	}
	t.Notes = append(t.Notes,
		"large datasets (FLK, LJ, WKP, TW) are generated at a fixed edge budget; see DESIGN.md")
	return t
}

// Table3 is the paper's headline comparison: cover size and runtime for
// DARC-DV, BUR+ and TDB++ at k=5 on all 16 datasets; the baselines are
// skipped on the four large datasets, which only TDB++ completes in the
// paper.
func Table3(cfg Config) *Table {
	t := &Table{
		ID:      "table3",
		Title:   fmt.Sprintf("cover size / runtime at k=%d (paper Table III)", cfg.K),
		Columns: []string{"DARC-DV", "BUR+", "TDB++"},
	}
	for _, d := range gen.Datasets() {
		g := cfg.genDataset(d, false)
		row := Row{Dataset: d.Name, K: cfg.K}
		if d.Large {
			row.Cells = append(row.Cells, Cell{Skipped: true}, Cell{Skipped: true})
		} else {
			row.Cells = append(row.Cells,
				cfg.run(g, core.DARCDV, cfg.K, 0),
				cfg.run(g, core.BURPlus, cfg.K, 0))
		}
		row.Cells = append(row.Cells, cfg.run(g, core.TDBPlusPlus, cfg.K, 0))
		t.Rows = append(t.Rows, row)
		if p, ok := paperTable3[d.Name]; ok {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s paper (full scale): DARC-DV %s, BUR+ %s, TDB++ %.0f/%.2fs",
				d.Name, paperPair(p[0], p[1]), paperPair(p[2], p[3]), p[4], p[5]))
		}
	}
	t.Notes = append(t.Notes,
		"expected shape (paper): TDB++ fastest by 2-3 orders; BUR+ smallest covers with TDB++ within a few percent; DARC-DV worst size",
		"measured shape (this repository): TDB++ fastest, BUR+ 1-4x slower, since it runs on the same block detector (DESIGN.md §7); BUR+ and TDB++ covers within 7% either way; DARC-DV worst size and the only INF")
	return t
}

func paperPair(size, secs float64) string {
	if size < 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f/%.2fs", size, secs)
}

// Table4 compares TDB++ cover sizes without vs with 2-cycles (MinLen 3 vs
// 2) at k=5 on the 12 standard datasets, reporting the growth ratio.
func Table4(cfg Config) *Table {
	t := &Table{
		ID:      "table4",
		Title:   fmt.Sprintf("TDB++ cover size without/with 2-cycles at k=%d (paper Table IV)", cfg.K),
		Columns: []string{"no-2cyc", "with-2cyc", "ratio(x1000)"},
	}
	for _, d := range gen.StandardDatasets() {
		g := cfg.genDataset(d, false)
		no2 := cfg.run(g, core.TDBPlusPlus, cfg.K, 3)
		with2 := cfg.run(g, core.TDBPlusPlus, cfg.K, 2)
		ratio := Cell{TimedOut: no2.TimedOut || with2.TimedOut}
		if !ratio.TimedOut && no2.Size > 0 {
			ratio.Size = with2.Size * 1000 / no2.Size
		}
		t.Rows = append(t.Rows, Row{Dataset: d.Name, K: cfg.K,
			Cells: []Cell{no2, with2, ratio}})
		if p, ok := paperTable4[d.Name]; ok {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s paper: %.0f -> %.0f (ratio %.2f)", d.Name, p[0], p[1], p[2]))
		}
	}
	t.Notes = append(t.Notes,
		"expected shape: including 2-cycles grows covers ~3x on average; high-reciprocity graphs (ASC, SAD) grow most, near-acyclic-reciprocity ones (GNU) least")
	return t
}

// namedGraph pairs a generated workload with its display name.
type namedGraph struct {
	name  string
	graph *digraph.Graph
}

func (c Config) registryGraphs(names ...string) []namedGraph {
	var out []namedGraph
	for _, name := range names {
		d, ok := gen.DatasetByName(name)
		if !ok {
			panic("exp: registry misses " + name)
		}
		out = append(out, namedGraph{name: d.Name, graph: c.genDataset(d, true)})
	}
	return out
}

// sweep runs the given algorithms for k in [KMin, KMax] over workloads,
// producing one runtime table and one size table. Once an algorithm times
// out at some k it is marked INF for all larger k (its cost grows with k),
// matching the paper's INF markers.
func (c Config) sweep(id6, id7, title string, graphs []namedGraph, algos []core.Algorithm, names []string) (*Table, *Table) {
	tTime := &Table{ID: id6, Title: title + " — runtime", Columns: names}
	tSize := &Table{ID: id7, Title: title + " — cover size", Columns: names}
	for _, ng := range graphs {
		dead := make([]bool, len(algos))
		for k := c.KMin; k <= c.KMax; k++ {
			row := Row{Dataset: ng.name, K: k}
			for ai, a := range algos {
				var cell Cell
				if dead[ai] {
					cell = Cell{TimedOut: true}
				} else {
					cell = c.run(ng.graph, a, k, 0)
					if cell.TimedOut {
						dead[ai] = true
					}
				}
				row.Cells = append(row.Cells, cell)
			}
			tTime.Rows = append(tTime.Rows, row)
			tSize.Rows = append(tSize.Rows, row)
		}
	}
	sortRows(tTime.Rows)
	sortRows(tSize.Rows)
	return tTime, tSize
}

// Fig67 regenerates the paper's Figures 6 (runtime vs k) and 7 (cover size
// vs k) for BUR+, DARC-DV and TDB++ over the 12 standard datasets.
func Fig67(cfg Config) (*Table, *Table) {
	var names []string
	for _, d := range gen.StandardDatasets() {
		names = append(names, d.Name)
	}
	t6, t7 := cfg.sweep("fig6", "fig7",
		fmt.Sprintf("BUR+/DARC-DV/TDB++ for k in [%d,%d] (paper Fig. 6/7)", cfg.KMin, cfg.KMax),
		cfg.registryGraphs(names...),
		[]core.Algorithm{core.BURPlus, core.DARCDV, core.TDBPlusPlus},
		[]string{"BUR+", "DARC-DV", "TDB++"})
	t6.Notes = append(t6.Notes,
		"expected shape (paper): TDB++ fastest at every k; DARC-DV and BUR+ degrade steeply with k and hit INF first",
		"measured shape (this repository): TDB++ fastest or level; BUR+ grows mildly with k on the block detector and completes every cell; DARC-DV degrades steeply and alone hits INF")
	t7.Notes = append(t7.Notes,
		"expected shape (paper): cover size grows with k for all algorithms; BUR+ smallest, TDB++ close, DARC-DV worst",
		"measured shape (this repository): as the paper, except that BUR+ and TDB++ trade the smallest cover within a few percent")
	return t6, t7
}

// Fig89 regenerates Figures 8 (runtime) and 9 (cover size): BUR vs BUR+ on
// WKV and WGO, isolating the cost/benefit of the minimal pruning pass.
func Fig89(cfg Config) (*Table, *Table) {
	t8, t9 := cfg.sweep("fig8", "fig9",
		fmt.Sprintf("BUR vs BUR+ for k in [%d,%d] (paper Fig. 8/9)", cfg.KMin, cfg.KMax),
		cfg.registryGraphs("WKV", "WGO"),
		[]core.Algorithm{core.BUR, core.BURPlus},
		[]string{"BUR", "BUR+"})
	t8.Notes = append(t8.Notes, "expected shape: BUR and BUR+ run in similar time")
	t9.Notes = append(t9.Notes, "expected shape: BUR+ covers are smaller thanks to the minimal pass")
	return t8, t9
}

// Fig10 regenerates Figure 10: the speedup ablation TDB vs TDB+ vs TDB++ on
// WKV, WGO and a small-world hard instance. It always uses natural
// candidate order (the paper's setting): degree-ascending order sidesteps
// the hard refutation searches that the blocks and the BFS filter exist to
// prune, so it would mask exactly the effect this figure measures. The
// small-world workload — long forward chains with sparse chords —
// maximizes failed k-hop searches and shows the optimizations' full effect.
func Fig10(cfg Config) *Table {
	cfg.Order = core.OrderNatural
	graphs := cfg.registryGraphs("WKV", "WGO")
	swN := int(20000 * cfg.SweepScale / 0.02)
	if swN < 100 {
		swN = 100
	}
	graphs = append(graphs, namedGraph{name: "SW", graph: gen.SmallWorld(swN, 3, 0.15, 5)})
	t, _ := cfg.sweep("fig10", "fig10-size",
		fmt.Sprintf("TDB vs TDB+ vs TDB++ for k in [%d,%d] (paper Fig. 10)", cfg.KMin, cfg.KMax),
		graphs,
		[]core.Algorithm{core.TDB, core.TDBPlus, core.TDBPlusPlus},
		[]string{"TDB", "TDB+", "TDB++"})
	t.Notes = append(t.Notes,
		"expected shape (paper): blocks (TDB+) and the BFS filter (TDB++) each speed up the top-down process, the filter more at large k; all three return identical covers",
		"measured shape (this repository): TDB++ ≈ TDB+; the block detector's distance-seeded barriers already make negative queries cheap, and the filter is read off the same seeded ball (DESIGN.md §2)",
		"SW is a synthetic small-world hard instance (long chains, sparse chords); natural candidate order is used here, see DESIGN.md")
	return t
}

// AblationOrder measures the candidate-order knob on TDB++ (this
// repository's ablation A1).
func AblationOrder(cfg Config) *Table {
	t := &Table{
		ID:      "order",
		Title:   fmt.Sprintf("TDB++ candidate order ablation at k=%d", cfg.K),
		Columns: []string{"natural", "degree-asc", "degree-desc", "random"},
	}
	orders := []core.Order{core.OrderNatural, core.OrderDegreeAsc, core.OrderDegreeDesc, core.OrderRandom}
	for _, name := range []string{"WKV", "ASC", "SAD", "WGO"} {
		d, _ := gen.DatasetByName(name)
		g := cfg.genDataset(d, true)
		row := Row{Dataset: d.Name, K: cfg.K}
		for _, ord := range orders {
			c := cfg
			c.Order = ord
			row.Cells = append(row.Cells, c.run(g, core.TDBPlusPlus, cfg.K, 0))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"degree-ascending keeps hubs in the cover (processed last), giving the smallest covers; degree-descending the largest")
	return t
}

// AblationSCC measures the SCC prefilter (ablation A2) on TDB++.
func AblationSCC(cfg Config) *Table {
	t := &Table{
		ID:      "scc",
		Title:   fmt.Sprintf("TDB++ with/without SCC prefilter at k=%d", cfg.K),
		Columns: []string{"no-prefilter", "scc-prefilter"},
	}
	for _, name := range []string{"GNU", "EU", "WIT", "WGO"} {
		d, _ := gen.DatasetByName(name)
		g := cfg.genDataset(d, true)
		off := cfg.run(g, core.TDBPlusPlus, cfg.K, 0)
		onCfg := cfg
		on := func() Cell {
			opts := core.Options{K: cfg.K, Order: onCfg.Order, SCCPrefilter: true}
			start := time.Now()
			res, err := core.Compute(g, core.TDBPlusPlus, opts)
			if err != nil {
				return Cell{TimedOut: true}
			}
			return Cell{Size: len(res.Cover), Time: time.Since(start)}
		}()
		t.Rows = append(t.Rows, Row{Dataset: d.Name, K: cfg.K, Cells: []Cell{off, on}})
	}
	t.Notes = append(t.Notes,
		"the prefilter exempts vertices outside non-trivial SCCs; covers are identical, time shifts with the share of acyclic vertices")
	return t
}

// NoHop runs the unconstrained variant (paper Sec. VI-C): cover every cycle
// regardless of length, implemented as k = n.
func NoHop(cfg Config) *Table {
	t := &Table{
		ID:      "nohop",
		Title:   "unconstrained cycle cover (k = n) with TDB++",
		Columns: []string{"k=5", "k=n"},
	}
	for _, name := range []string{"WKV", "ASC", "GNU"} {
		d, _ := gen.DatasetByName(name)
		g := cfg.genDataset(d, true)
		t.Rows = append(t.Rows, Row{Dataset: d.Name, K: cfg.K, Cells: []Cell{
			cfg.run(g, core.TDBPlusPlus, cfg.K, 0),
			cfg.run(g, core.TDBPlusPlus, cycle.Unconstrained(g), 0),
		}})
	}
	t.Notes = append(t.Notes,
		"the unconstrained cover is a superset problem: it must also break long cycles, so it is at least as large and slower to compute")
	return t
}
