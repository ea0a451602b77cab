package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"tdb"
)

const (
	setupRounds = 15  // set-ups per run; setup_s and restart_s are their medians
	warmSolves  = 2   // solves after the first, before timing starts
	minSolves   = 100 // enough samples for a p90 with ten beyond it
)

// runSolve runs solve-dense or solve-sparse: Engine.Solve(ctx, k) with
// default options, repeated on one graph, in this process.
func runSolve(ctx context.Context, cfg config, spec workloadSpec, rep *report, tr *tracer) error {
	g, err := makeGraph(spec.dataset, cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	describe(&rep.env, g)
	path := filepath.Join(cfg.work, "graph.bin")
	if err := tdb.SaveGraph(path, g); err != nil {
		return err
	}

	// Set-up: load the graph file, build the engine, solve once (the first
	// answer after a restart), then warm up.
	var eng *tdb.Engine
	var first *tdb.Result
	var setups, restarts []time.Duration
	for i := 0; i < setupRounds; i++ {
		eng = nil
		runtime.GC()
		t0 := time.Now()
		lg, err := tdb.LoadGraph(path)
		if err != nil {
			return err
		}
		e := tdb.NewEngine(lg)
		res, err := e.Solve(ctx, hopK)
		if err != nil {
			return err
		}
		restarts = append(restarts, time.Since(t0))
		for j := 0; j < warmSolves; j++ {
			if _, err := e.Solve(ctx, hopK); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0))
		eng, first = e, res
	}
	if err := checkCover(eng.Graph(), first.Cover, true); err != nil {
		rep.wrongAnswer(fmt.Errorf("first cover: %w", err))
	}
	want := coverHash(first.Cover)

	// Timed loop. In a traced run every other solve is traced, so the
	// tracing overhead is measured within one run.
	var lat, traced, untraced sample
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuTime(0)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := int64(0); time.Since(start) < cfg.duration() || len(lat) < minSolves; i++ {
		var t *tracer
		if tr != nil && i%2 == 0 {
			t = tr
		}
		root := t.begin(i, -1, "bench.op")
		call := t.begin(i, root, "core.Engine.Solve")
		t0 := time.Now()
		res, err := eng.Solve(ctx, hopK)
		d := time.Since(t0)
		t.end(call)
		rep.attempted++
		if err != nil {
			rep.fail("error")
			t.end(root)
			continue
		}
		chk := t.begin(i, root, "bench.cover_hash")
		ok := coverHash(res.Cover) == want
		t.end(chk)
		t.end(root)
		if !ok {
			rep.wrongAnswer(fmt.Errorf("solve %d: cover of %d vertices differs from the verified first cover", i, len(res.Cover)))
		}
		lat.add(d)
		if t != nil {
			traced.add(d)
		} else {
			untraced.add(d)
		}
	}
	elapsed := time.Since(start)
	cpu1, err := cpuTime(0)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	peak, err := statusMiB(0, "VmHWM")
	if err != nil {
		return err
	}
	// The resident set the engine keeps between solves. Sampled, it would
	// measure how much garbage had piled up since the last collection,
	// which on the dense graph runs only every few dozen solves; collecting
	// and returning free pages first makes it repeatable.
	debug.FreeOSMemory()
	rss, err := statusMiB(0, "VmRSS")
	if err != nil {
		return err
	}

	tail := lat.quantile(0.9)
	n := float64(len(lat))
	if tr == nil {
		rep.set("setup_s", medianSeconds(setups), "s")
		rep.set("op_ms", lat.median(), "ms")
		rep.set("restart_s", medianSeconds(restarts), "s")
		rep.set("cover_size", float64(len(first.Cover)), "vertices")
		rep.set("rss_mb", rss, "MiB")
	}
	rep.note("setup_s", medianSeconds(setups), "s", fmt.Sprintf("median of %d set-ups", setupRounds))
	rep.note("solve_ms", lat.median(), "ms", fmt.Sprintf("median of %d solves", len(lat)))
	rep.note("solve_p90_ms", tail, "ms", fmt.Sprintf("%d solves, %d beyond", len(lat), lat.beyond(0.9)))
	rep.note("solves_per_s", n/elapsed.Seconds(), "1/s", "one caller")
	rep.note("cover_size", float64(len(first.Cover)), "vertices", "exact")
	rep.note("rss_mb", rss, "MiB", "VmRSS of this process, which runs the library, after the timed loop and a collection")
	rep.note("rss_peak_mb", peak, "MiB", "VmHWM")
	rep.note("restart_s", medianSeconds(restarts), "s", "load + engine + first solve")
	rep.note("strategy", float64(first.Stats.Workers), "workers", first.Stats.Strategy)

	if tr == nil {
		return nil
	}
	rep.set("trace.op_ms", traced.median(), "ms")
	rep.set("trace.overhead_ms", traced.median()-untraced.median(), "ms")
	rep.set("cpu_ms_per_op", float64(cpu1-cpu0)/1e6/n, "ms")
	rep.set("gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	rep.set("gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	return probeLayers(ctx, cfg, layerInputs{g: g, graphPath: path, cover: first.Cover}, rep, tr)
}
