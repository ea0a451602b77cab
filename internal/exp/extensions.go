package exp

import (
	"context"
	"fmt"
	"time"

	"tdb/internal/core"
	"tdb/internal/gen"
)

// Extension experiments (beyond the paper; see DESIGN.md).

// EdgeAblation compares the top-down edge transversal (TDB-E) against DARC
// on DARC's native problem: minimal edge sets breaking all constrained
// cycles. One row per dataset; cells are (selected edges, seconds).
func EdgeAblation(cfg Config) *Table {
	t := &Table{
		ID:      "edge",
		Title:   fmt.Sprintf("edge transversal: DARC vs top-down TDB-E at k=%d", cfg.K),
		Columns: []string{"DARC", "TDB-E"},
	}
	for _, name := range []string{"WKV", "ASC", "GNU", "EU"} {
		d, _ := gen.DatasetByName(name)
		g := cfg.genDataset(d, true)

		darcCell := func() Cell {
			start := time.Now()
			cancelled := deadlineFn(cfg.Timeout)
			edges, complete := core.DARCEdges(g, cfg.K, 3, cancelled)
			return Cell{Size: len(edges), Time: time.Since(start), TimedOut: !complete}
		}()

		tdbeCell := func() Cell {
			ctx, cancel := timeoutCtx(cfg.Timeout)
			defer cancel()
			opts := core.Options{K: cfg.K, Order: cfg.Order, Context: ctx}
			r, err := core.TopDownEdges(g, opts)
			if err != nil {
				return Cell{TimedOut: true}
			}
			return Cell{Size: len(r.Edges), Time: r.Stats.Duration, TimedOut: r.Stats.TimedOut}
		}()

		t.Rows = append(t.Rows, Row{Dataset: d.Name, K: cfg.K, Cells: []Cell{darcCell, tdbeCell}})
	}
	t.Notes = append(t.Notes,
		"extension: the paper's top-down inversion applied to the EDGE version (Def. 5); expected shape: TDB-E faster with comparable or smaller transversals")
	return t
}

// ParallelAblation compares the sequential TDB++ against the
// SCC-partitioned parallel solver on a many-component workload.
func ParallelAblation(cfg Config) *Table {
	t := &Table{
		ID:      "parallel",
		Title:   fmt.Sprintf("SCC-partitioned parallel TDB++ at k=%d (planted-cycle workload)", cfg.K),
		Columns: []string{"sequential", "parallel"},
	}
	sizes := []struct {
		name       string
		n, cyc, bg int
	}{
		{"plant-10k", 10_000, 150, 15_000},
		{"plant-40k", 40_000, 600, 60_000},
	}
	for _, s := range sizes {
		g := gen.PlantedCycles(s.n, s.cyc, 3, cfg.K, s.bg, 77).Graph
		seq := cfg.run(g, core.TDBPlusPlus, cfg.K, 0)
		par := func() Cell {
			ctx, cancel := timeoutCtx(cfg.Timeout)
			defer cancel()
			opts := core.Options{K: cfg.K, Order: cfg.Order, Context: ctx}
			r, err := core.NewEngine(g).Solve(nil, core.SolveSpec{
				Algorithm: core.TDBPlusPlus, Opts: opts, Strategy: core.StrategyParallelSCC})
			if err != nil {
				return Cell{TimedOut: true}
			}
			return Cell{Size: len(r.Cover), Time: r.Stats.Duration, TimedOut: r.Stats.TimedOut}
		}()
		t.Rows = append(t.Rows, Row{Dataset: s.name, K: cfg.K, Cells: []Cell{seq, par}})
	}
	t.Notes = append(t.Notes,
		"extension: covers are computed per SCC; sizes match the sequential result on disjoint-component workloads, wall time scales with available cores")
	return t
}

// timeoutCtx returns a context bounded by timeout (background when <= 0).
func timeoutCtx(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), timeout)
}

// deadlineFn adapts the config timeout for the one remaining entry point
// that takes a raw poll hook (core.DARCEdges).
func deadlineFn(timeout time.Duration) func() bool {
	if timeout <= 0 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	var tick int
	return func() bool {
		tick++
		if tick%64 != 0 {
			return false
		}
		return time.Now().After(deadline)
	}
}
