// Command tdbstat profiles a directed graph: the degree, reciprocity, SCC
// and short-cycle statistics that determine how hard a cycle-cover instance
// is (and how faithful a synthetic stand-in is to its target).
//
// Usage:
//
//	tdbstat -graph g.txt [-k 5] [-max-cycles 1000000] [-renumber degree|bfs|all]
//
// The locality lines report how the vertex numbering interacts with the
// CSR layout (mean and p90 neighbor-ID distance, adjacency bandwidth);
// -renumber additionally shows the same quantities after the chosen
// cache-aware renumbering(s), previewing the layout a graph renumbered at
// ingest (Builder.BuildRenumbered) would solve on.
package main

import (
	"flag"
	"fmt"
	"os"

	"tdb"
	"tdb/internal/graphstat"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tdbstat:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tdbstat", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "graph file (required)")
		k         = fs.Int("k", 5, "count simple cycles up to this length (0 disables)")
		maxCycles = fs.Int64("max-cycles", 1_000_000, "stop the cycle census after this many")
		renumber  = fs.String("renumber", "", "also show locality after renumbering: degree, bfs or all")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		fs.Usage()
		return fmt.Errorf("-graph is required")
	}
	// OpenStorage dispatches on the file: a TDBCSR1 file is served
	// zero-copy out of a memory mapping (so profiling a larger-than-RAM
	// graph does not load it), anything else loads as usual.
	g, closeStorage, err := tdb.OpenStorage(*graphPath)
	if err != nil {
		return err
	}
	defer closeStorage()
	p := graphstat.Compute(g, graphstat.Options{K: *k, MaxCycles: *maxCycles})
	p.Fprint(os.Stdout)
	graphstat.ComputeLocality(g).Fprint(os.Stdout, "input")
	var modes []tdb.Renumbering
	switch *renumber {
	case "":
	case "all":
		modes = []tdb.Renumbering{tdb.RenumberDegree, tdb.RenumberBFS}
	default:
		mode, err := tdb.ParseRenumbering(*renumber)
		if err != nil {
			return err
		}
		if mode != tdb.RenumberNone {
			modes = []tdb.Renumbering{mode}
		}
	}
	if len(modes) > 0 {
		mg, ok := g.(*tdb.Graph)
		if !ok {
			return fmt.Errorf("-renumber needs the in-memory backend; %s is a mapped file", *graphPath)
		}
		for _, mode := range modes {
			ng := mg.Renumber(tdb.RenumberPerm(mg, mode))
			graphstat.ComputeLocality(ng).Fprint(os.Stdout, mode.String())
		}
	}
	return nil
}
