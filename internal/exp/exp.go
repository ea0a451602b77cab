// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Sec. VII) on the synthetic dataset
// stand-ins, plus the repository's own ablations. Each experiment prints an
// aligned text table and returns it structured, so cmd/tdbbench, the
// benchmarks in bench_test.go, and the tests all share one code path.
//
// Absolute numbers differ from the paper (scaled synthetic data, Go vs
// C++, different hardware); the quantities to compare are the *shapes*:
// which algorithm wins, by how many orders, and where the INF cutoffs fall.
// No committed record compares the paper's numbers with the measured ones
// yet; ROADMAP.md's "Commit the paper-reproduction record" item tracks it.
package exp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"tdb/internal/core"
	"tdb/internal/digraph"
	"tdb/internal/gen"
	"tdb/internal/verify"
)

// Config tunes the harness.
type Config struct {
	// Scale is the fraction of each paper dataset's size to generate for
	// the single-k experiments (Tables III and IV).
	Scale float64
	// SweepScale is the fraction used for the k-sweep figures, which run
	// 5x more configurations.
	SweepScale float64
	// LargeEdges is the target edge count for the four "Large" datasets
	// (FLK, LJ, WKP, TW), which are scaled to a fixed size instead of a
	// fraction (their full sizes are out of reach offline).
	LargeEdges int
	// K is the hop constraint for the single-k experiments (paper: 5).
	KMin, KMax, K int
	// Timeout bounds each individual algorithm run; timed-out runs print
	// INF, like the paper's plots.
	Timeout time.Duration
	// Order is the candidate order for the top-down family. The default is
	// degree-ascending: on the synthetic stand-ins natural order correlates
	// with nothing, and degree-ascending reproduces the paper's observed
	// TDB++~BUR+ cover-size parity (see DESIGN.md and the "order"
	// ablation). BUR and DARC-DV always use natural order.
	Order core.Order
	// Verify re-checks every completed cover (validity; minimality for the
	// algorithms that promise it) — slow, used by the harness tests.
	Verify bool
	// Out receives the printed tables (nil discards).
	Out io.Writer
}

// DefaultConfig returns the full-size settings of `tdbbench -exp`, the
// intended basis of the paper-reproduction record (an open ROADMAP.md
// item).
func DefaultConfig() Config {
	return Config{
		Scale:      0.05,
		SweepScale: 0.02,
		LargeEdges: 400_000,
		KMin:       3,
		KMax:       7,
		K:          5,
		Timeout:    60 * time.Second,
		Order:      core.OrderDegreeAsc,
	}
}

// QuickConfig returns a configuration small enough for CI and benchmarks.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Scale = 0.01
	c.SweepScale = 0.01
	c.LargeEdges = 40_000
	c.Timeout = 5 * time.Second
	c.KMax = 5
	return c
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

// Cell is one (dataset, k, algorithm) measurement.
type Cell struct {
	Size     int
	Time     time.Duration
	TimedOut bool
	Skipped  bool // not attempted (e.g. baseline on a Large dataset)
}

// SizeString renders the cover size, or the paper's INF marker.
func (c Cell) SizeString() string {
	if c.Skipped {
		return "-"
	}
	if c.TimedOut {
		return "INF"
	}
	return fmt.Sprintf("%d", c.Size)
}

// TimeString renders the runtime in seconds, or INF/-.
func (c Cell) TimeString() string {
	if c.Skipped {
		return "-"
	}
	if c.TimedOut {
		return "INF"
	}
	return fmt.Sprintf("%.3f", c.Time.Seconds())
}

// Row is one line of a result table.
type Row struct {
	Dataset string
	K       int
	Cells   []Cell
}

// Table is a fully materialized experiment result.
type Table struct {
	ID      string // "table3", "fig6", ...
	Title   string
	Columns []string // one per Cell, e.g. "TDB++(size)"
	Rows    []Row
	Notes   []string
	// Plain renders cells as bare numbers (no runtime suffix) — used for
	// count-only tables like table2.
	Plain bool
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	header := append([]string{"dataset", "k"}, t.Columns...)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	lines := make([][]string, len(t.Rows))
	for ri, r := range t.Rows {
		line := []string{r.Dataset, fmt.Sprintf("%d", r.K)}
		for _, c := range r.Cells {
			if t.Plain {
				line = append(line, c.SizeString())
			} else {
				line = append(line, c.SizeString()+"/"+c.TimeString()+"s")
			}
		}
		lines[ri] = line
		for i, cell := range line {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printLine := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	printLine(header)
	for _, line := range lines {
		printLine(line)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// run executes one algorithm under the config's timeout and (optionally)
// verifies the cover.
func (c Config) run(g *digraph.Graph, algo core.Algorithm, k, minLen int) Cell {
	opts := core.Options{K: k, MinLen: minLen}
	switch algo {
	case core.TDB, core.TDBPlus, core.TDBPlusPlus:
		opts.Order = c.Order
	}
	if c.Timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), c.Timeout)
		defer cancel()
		opts.Context = ctx
	}
	res, err := core.Compute(g, algo, opts)
	if err != nil {
		// Options are validated by the harness, so this is unreachable in
		// practice; treat it as a timeout-grade failure rather than abort
		// a long experiment.
		return Cell{TimedOut: true}
	}
	cell := Cell{Size: len(res.Cover), Time: res.Stats.Duration, TimedOut: res.Stats.TimedOut}
	if c.Verify && !cell.TimedOut {
		ml := minLen
		if ml == 0 {
			ml = 3
		}
		wantMinimal := algo != core.BUR && algo != core.DARCDV
		rep := verify.Check(g, k, ml, res.Cover, wantMinimal)
		if !rep.Valid {
			panic(fmt.Sprintf("exp: %v produced an invalid cover on n=%d m=%d k=%d", algo, g.NumVertices(), g.NumEdges(), k))
		}
		if wantMinimal && !rep.Minimal {
			panic(fmt.Sprintf("exp: %v produced a non-minimal cover on n=%d m=%d k=%d", algo, g.NumVertices(), g.NumEdges(), k))
		}
	}
	return cell
}

// genDataset builds the stand-in graph for d at the config's scale rules.
func (c Config) genDataset(d gen.Dataset, sweep bool) *digraph.Graph {
	scale := c.Scale
	if sweep {
		scale = c.SweepScale
	}
	if d.Large {
		scale = float64(c.LargeEdges) / float64(d.PaperE)
	}
	if scale > 1 {
		scale = 1
	}
	return d.Generate(scale)
}

// Experiments lists the runnable experiment IDs in presentation order.
func Experiments() []string {
	return []string{"table2", "table3", "table4", "fig6", "fig7", "fig8", "fig9", "fig10", "order", "scc", "nohop", "edge", "parallel"}
}

// Run executes one experiment by ID ("all" runs every one) and prints each
// resulting table to cfg.Out.
func Run(id string, cfg Config) ([]*Table, error) {
	var tables []*Table
	switch strings.ToLower(id) {
	case "table2":
		tables = []*Table{Table2(cfg)}
	case "table3":
		tables = []*Table{Table3(cfg)}
	case "table4":
		tables = []*Table{Table4(cfg)}
	case "fig6", "fig7", "fig67":
		t6, t7 := Fig67(cfg)
		tables = []*Table{t6, t7}
	case "fig8", "fig9", "fig89":
		t8, t9 := Fig89(cfg)
		tables = []*Table{t8, t9}
	case "fig10":
		tables = []*Table{Fig10(cfg)}
	case "order":
		tables = []*Table{AblationOrder(cfg)}
	case "scc":
		tables = []*Table{AblationSCC(cfg)}
	case "nohop":
		tables = []*Table{NoHop(cfg)}
	case "edge":
		tables = []*Table{EdgeAblation(cfg)}
	case "parallel":
		tables = []*Table{ParallelAblation(cfg)}
	case "all":
		for _, e := range Experiments() {
			ts, err := Run(e, cfg)
			if err != nil {
				return tables, err
			}
			tables = append(tables, ts...)
		}
		return tables, nil
	default:
		return nil, fmt.Errorf("exp: unknown experiment %q (want one of %s, or all)",
			id, strings.Join(Experiments(), ", "))
	}
	for _, t := range tables {
		t.Fprint(cfg.out())
	}
	return tables, nil
}

// sortRows orders rows by the paper's dataset order (unknown synthetic
// workloads last), then k.
func sortRows(rows []Row) {
	pos := map[string]int{}
	for i, d := range gen.Datasets() {
		pos[d.Name] = i
	}
	at := func(name string) int {
		if p, ok := pos[name]; ok {
			return p
		}
		return len(pos)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if at(rows[i].Dataset) != at(rows[j].Dataset) {
			return at(rows[i].Dataset) < at(rows[j].Dataset)
		}
		return rows[i].K < rows[j].K
	})
}
