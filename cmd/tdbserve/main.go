// Command tdbserve serves hop-constrained cycle cover queries over HTTP.
//
// Usage:
//
//	tdbserve -addr :8080 -k 5 [-minlen 3] [-n 1000] [-graph g.txt]
//	    [-deadline 5s] [-max-deadline 30s] [-max-concurrent 0]
//	    [-write-queue 256] [-publish-every 512] [-degrade]
//	    [-data-dir dir] [-fsync always|interval|never]
//	    [-fsync-interval 100ms] [-checkpoint-every 1024]
//
// One writer goroutine applies POSTed edge updates to a dynamic cover
// maintainer and publishes immutable epoch snapshots; reader requests
// (solve, cycle, hascycle, cover) run against the epoch current at their
// arrival. SIGINT/SIGTERM drain gracefully: admissions stop, in-flight
// requests finish, the write queue is flushed into a final epoch and the
// WAL tail is fsynced, and the process exits 0.
//
// With -data-dir, writes are durable (DESIGN.md §14): acknowledged batches
// go to a write-ahead log before the response, periodic snapshot
// checkpoints keep the log short, and a restart with the same directory
// recovers the state — including after kill -9, where a torn final record
// is discarded at a record boundary. Under -fsync always no acknowledged
// write is ever lost; interval bounds loss to the sync window; never leaves
// flushing to the OS (a graceful shutdown still loses nothing).
//
// Quickstart:
//
//	tdbserve -addr :8080 -k 5 -n 100 &
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/update -d \
//	    '{"updates":[{"op":"insert","u":0,"v":1},{"op":"insert","u":1,"v":2},{"op":"insert","u":2,"v":0}],"publish":true,"wait":true}'
//	curl -s -X POST localhost:8080/v1/solve -d '{}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tdb"
	"tdb/internal/core"
	"tdb/internal/server"
	"tdb/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tdbserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tdbserve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		k           = fs.Int("k", 5, "hop constraint: maintain a cover of cycles of length minlen..k")
		minLen      = fs.Int("minlen", 3, "minimum cycle length (2 includes 2-cycles)")
		n           = fs.Int("n", 0, "initial vertex count for an empty server")
		graphPath   = fs.String("graph", "", "seed graph file (optional; solves the initial cover at startup)")
		deadline    = fs.Duration("deadline", 5*time.Second, "default per-request deadline")
		maxDeadline = fs.Duration("max-deadline", 30*time.Second, "cap on per-request deadline overrides")
		maxConc     = fs.Int("max-concurrent", 0, "reader admission limit (0 = 2x cores)")
		writeQueue  = fs.Int("write-queue", 256, "writer queue depth (full queue sheds with 429)")
		publishEach = fs.Int("publish-every", 512, "publish a fresh epoch after this many applied updates")
		degrade     = fs.Bool("degrade", false, "default solves to partial_on_deadline (valid degraded cover instead of 504)")
		store       = fs.String("store", "memory", "seed graph storage backend: memory (load into RAM) or mmap (serve the CSR out of a memory-mapped TDBCSR1 file, for graphs bigger than RAM)")
		dataDir     = fs.String("data-dir", "", "durable state directory (WAL + checkpoints); empty = in-memory only")
		fsyncMode   = fs.String("fsync", "always", "WAL sync policy: always, interval or never")
		fsyncEvery  = fs.Duration("fsync-interval", 100*time.Millisecond, "background sync cadence under -fsync interval")
		ckptEvery   = fs.Int("checkpoint-every", 1024, "write a snapshot checkpoint after this many logged updates")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := wal.ParsePolicy(*fsyncMode)
	if err != nil {
		return err
	}

	cfg := server.Config{
		NumVertices:       *n,
		K:                 *k,
		MinLen:            *minLen,
		DefaultDeadline:   *deadline,
		MaxDeadline:       *maxDeadline,
		MaxConcurrent:     *maxConc,
		WriteQueue:        *writeQueue,
		PublishEvery:      *publishEach,
		DegradeOnDeadline: *degrade,
		DataDir:           *dataDir,
		Fsync:             policy,
		FsyncInterval:     *fsyncEvery,
		CheckpointEvery:   *ckptEvery,
	}
	if *graphPath != "" {
		g, err := loadSeed(*graphPath, *store)
		if err != nil {
			return fmt.Errorf("loading graph: %w", err)
		}
		fmt.Fprintf(os.Stderr, "loaded %v\n", g)
		res, err := core.Compute(g, core.TDBPlusPlus, core.Options{K: *k, MinLen: *minLen})
		if err != nil {
			return fmt.Errorf("solving seed cover: %w", err)
		}
		fmt.Fprintf(os.Stderr, "seed cover: %d vertices in %v (storage=%s)\n",
			len(res.Cover), res.Stats.Duration.Round(time.Millisecond), res.Stats.Storage)
		cfg.Seed = g
		cfg.SeedCover = res.Cover
	} else if *store != "memory" {
		return fmt.Errorf("-store %s requires -graph", *store)
	}

	// A mapped seed stays open for the process lifetime: every published
	// epoch's base CSR aliases the mapping.
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(*addr, s.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "serving on %s (k=%d minlen=%d)\n", *addr, *k, *minLen)

	select {
	case err := <-errc:
		return err // bind failure or unexpected listener death
	case <-ctx.Done():
	}

	// Drain: stop accepting connections, let in-flight requests finish,
	// flush the writer, exit cleanly.
	fmt.Fprintln(os.Stderr, "signal received; draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := s.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("server drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "drained; bye")
	return nil
}

// Slow-client connection timeouts. Admission control starts once a request
// is parsed, so a client that never finishes its headers would otherwise
// hold a connection outside both admission pools; readHeaderTimeout drops
// it, and idleTimeout reclaims idle keep-alive connections.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the listener-side server for h, with the
// slow-client timeouts set.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// loadSeed opens the seed graph under the requested storage backend.
// "memory" loads any supported file format into the in-memory CSR. "mmap"
// serves a TDBCSR1 file (made by tdbgen -format mapped or tdb.SaveMapped)
// zero-copy out of a memory mapping — other formats are first converted to
// a sibling .tdbcsr file, so a text edge list works with -store mmap at
// the cost of a one-time conversion.
func loadSeed(path, store string) (tdb.Storage, error) {
	switch store {
	case "memory":
		return tdb.LoadGraph(path)
	case "mmap":
		if !tdb.IsMappedFile(path) {
			g, err := tdb.LoadGraph(path)
			if err != nil {
				return nil, err
			}
			mappedPath := path + ".tdbcsr"
			if err := tdb.SaveMapped(mappedPath, g); err != nil {
				return nil, fmt.Errorf("converting to mapped format: %w", err)
			}
			fmt.Fprintf(os.Stderr, "converted %s to %s\n", path, mappedPath)
			path = mappedPath
		}
		return tdb.OpenMapped(path)
	default:
		return nil, fmt.Errorf("unknown -store %q (want memory or mmap)", store)
	}
}
