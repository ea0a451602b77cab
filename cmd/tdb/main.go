// Command tdb computes a hop-constrained cycle cover of a directed graph.
//
// Usage:
//
//	tdb -graph g.txt -k 5 [-algo TDB++] [-minlen 3] [-order natural]
//	    [-scc] [-strategy auto] [-workers 0] [-timeout 60s]
//	    [-edges] [-out cover.txt] [-verify]
//
// The graph file is a SNAP-style text edge list ("u v" per line, '#'
// comments) or the binary format for ".bin" paths. The cover is written one
// vertex ID per line ("u v" edges per line with -edges). By default the
// solver plans its own execution strategy from the graph's SCC structure
// and the worker budget; -strategy pins it.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tdb"
)

// Sentinel errors so scripts can tell WHY a run produced no cover: a solve
// that outgrew its -timeout exits 124 (the timeout(1) convention), an
// interrupt exits 130 (128+SIGINT), and bad input stays at 1.
var (
	errTimedOut = errors.New("timed out")
	errCanceled = errors.New("canceled")
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tdb:", err)
		switch {
		case errors.Is(err, errTimedOut):
			os.Exit(124)
		case errors.Is(err, errCanceled):
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tdb", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "input graph file (required)")
		k         = fs.Int("k", 5, "hop constraint: cover cycles of length minlen..k")
		algoName  = fs.String("algo", "TDB++", "algorithm: BUR, BUR+, TDB, TDB+, TDB++ or DARC-DV")
		minLen    = fs.Int("minlen", 3, "minimum cycle length (2 includes 2-cycles)")
		orderName = fs.String("order", "natural", "candidate order: natural, degree-asc, degree-desc, random")
		seed      = fs.Uint64("seed", 0, "seed for -order random")
		sccPre    = fs.Bool("scc", false, "enable the SCC prefilter")
		stratName = fs.String("strategy", "auto", "execution strategy: auto, sequential, scc-parallel")
		workers   = fs.Int("workers", 0, "worker budget for strategy selection (0 = all cores)")
		timeout   = fs.Duration("timeout", 0, "abort after this duration (0 = unlimited)")
		degrade   = fs.Bool("degrade", false, "on timeout, write the valid-but-possibly-non-minimal cover instead of failing")
		edgeMode  = fs.Bool("edges", false, "compute the EDGE transversal instead of the vertex cover")
		outPath   = fs.String("out", "", "write the cover here (default stdout)")
		doVerify  = fs.Bool("verify", false, "verify validity and minimality of the result")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		fs.Usage()
		return fmt.Errorf("-graph is required")
	}
	algo, err := tdb.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	order, err := tdb.ParseOrder(*orderName)
	if err != nil {
		return err
	}
	if order == tdb.OrderWeighted {
		// The library order exists, but the CLI has no weights input.
		return fmt.Errorf("-order weighted needs a per-vertex weights input, which this tool does not take (want natural, degree-asc, degree-desc or random)")
	}
	strategy, err := tdb.ParseStrategy(*stratName)
	if err != nil {
		return err
	}

	g, err := tdb.LoadGraph(*graphPath)
	if err != nil {
		return fmt.Errorf("loading graph: %w", err)
	}
	fmt.Fprintf(os.Stderr, "loaded %v\n", g)

	// Ctrl-C cancels the solve rather than killing the process mid-write;
	// the exit code then distinguishes interrupt (130) from timeout (124).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := []tdb.Option{
		tdb.WithAlgorithm(algo),
		tdb.WithMinLen(*minLen),
		tdb.WithOrder(order),
		tdb.WithSeed(*seed),
		tdb.WithStrategy(strategy),
		tdb.WithWorkers(*workers),
	}
	if *sccPre {
		opts = append(opts, tdb.WithSCCPrefilter())
	}
	if *edgeMode {
		opts = append(opts, tdb.WithEdgeCover())
	}
	if *degrade {
		opts = append(opts, tdb.WithPartialOnDeadline())
	}
	res, err := tdb.Solve(ctx, g, *k, opts...)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(os.Stderr, "%s k=%d minlen=%d [%s, %d workers]: cover=%d in %v (checked=%d, filter-pruned=%d, scc-skipped=%d)\n",
		st.Algorithm, st.K, st.MinLen, st.Strategy, st.Workers,
		st.CoverSize, st.Duration.Round(time.Millisecond),
		st.Checked, st.FilterPruned, st.SCCSkipped)
	if st.TimedOut {
		if st.StopReason == "canceled" {
			return fmt.Errorf("%w (interrupt); partial cover not written", errCanceled)
		}
		return fmt.Errorf("%w after %v; partial cover not written", errTimedOut, *timeout)
	}
	if st.Degraded {
		fmt.Fprintf(os.Stderr, "deadline hit (%s): cover is valid but possibly non-minimal\n", st.StopReason)
	}

	if *doVerify {
		if *edgeMode {
			fmt.Fprintln(os.Stderr, "note: -verify checks vertex covers; skipping for -edges")
		} else {
			// Degraded covers trade minimality for the deadline; only
			// validity can be demanded of them.
			wantMinimal := algo != tdb.BUR && algo != tdb.DARCDV && !st.Degraded
			rep := tdb.Verify(g, *k, *minLen, res.Cover, wantMinimal)
			switch {
			case !rep.Valid:
				return fmt.Errorf("verification FAILED: surviving cycle %v", rep.Witness)
			case wantMinimal && !rep.Minimal:
				return fmt.Errorf("verification FAILED: redundant vertices %v", rep.Redundant)
			default:
				fmt.Fprintln(os.Stderr, "verification passed")
			}
		}
	}

	w := bufio.NewWriter(out)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	if *edgeMode {
		for _, e := range res.Edges {
			fmt.Fprintln(w, e.U, e.V)
		}
	} else {
		for _, v := range res.Cover {
			fmt.Fprintln(w, v)
		}
	}
	return w.Flush()
}
