package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"tdb"
	"tdb/internal/dynamic"
	"tdb/internal/server"
	"tdb/internal/wal"
)

const (
	serveSetupRounds = 5   // server launches per run; setup_s is their median
	recoverRounds    = 7   // restarts from copies of the killed data dir
	warmQueries      = 500 // per connection, before timing starts
	noCycleRechecks  = 200 // found=false answers re-checked with the library
	batchesPerSecond = 350 // serve-write stream length per measured second
	startTimeout     = 120 * time.Second
	// readPause spaces serve-write's reads. Back-to-back reads would keep
	// both CPUs of a two-CPU machine busy beside the writer, and the write
	// latency would then measure CPU contention more than the write path.
	readPause = time.Millisecond
)

// launch starts tdbserve, waits for /healthz and for the first /v1/cycle
// answer, and returns the server with the time from launch to that answer.
func launch(cfg config, name string, args, env []string, c *http.Client, src tdb.VID) (*serverProc, time.Duration, error) {
	p, err := startServer(cfg, name, args, env)
	if err != nil {
		return nil, 0, err
	}
	if err := p.waitHealthy(c, startTimeout); err != nil {
		p.kill()
		return nil, 0, err
	}
	code, b, err := post(c, p.base+"/v1/cycle", cycleBody(src))
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("first /v1/cycle answered %d: %s", code, b)
	}
	if err != nil {
		p.kill()
		return nil, 0, err
	}
	return p, time.Since(p.started), nil
}

// inParallel runs fn for every reader at once and returns the first error.
func inParallel(readers []*reader, fn func(r *reader) error) error {
	errs := make([]error, len(readers))
	var wg sync.WaitGroup
	for i, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(r)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// warmUp sends warmQueries requests on each connection concurrently; the
// answers are not kept.
func warmUp(ctx context.Context, clients []*http.Client, base string, srcs [][]tdb.VID) error {
	readers := make([]*reader, len(clients))
	for i, c := range clients {
		readers[i] = &reader{c: c, base: base, srcs: srcs[i]}
	}
	return inParallel(readers, func(r *reader) error { return r.run(ctx, time.Time{}, warmQueries, nil) })
}

// serverRuntime reports the server process's CPU per operation and, in a
// traced run (GODEBUG=gctrace=1), its GC cycles and pauses since logAt.
func serverRuntime(rep *report, p *serverProc, cpu0 time.Duration, logAt int, ops int) error {
	cpu1, err := cpuTime(p.pid())
	if err != nil {
		return err
	}
	cycles, pause := gcTrace(p.log()[logAt:])
	rep.set("cpu_ms_per_op", float64(cpu1-cpu0)/1e6/float64(max(ops, 1)), "ms")
	rep.set("gc_cycles", float64(cycles), "count")
	rep.set("gc_pause_ms", pause, "ms")
	return nil
}

// runServeRead drives tdbserve -store mmap with two connections of
// /v1/cycle requests from seeded uniform-random sources, no writes.
func runServeRead(ctx context.Context, cfg config, spec workloadSpec, rep *report, tr *tracer) error {
	g, err := makeGraph(spec.dataset, cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	describe(&rep.env, g)
	mapped := filepath.Join(cfg.work, "graph.tdbcsr")
	graphPath := filepath.Join(cfg.work, "graph.bin")
	if err := tdb.SaveMapped(mapped, g); err != nil {
		return err
	}
	if err := tdb.SaveGraph(graphPath, g); err != nil {
		return err
	}
	args := []string{"-k", fmt.Sprint(hopK), "-minlen", fmt.Sprint(minLen), "-store", "mmap", "-graph", mapped}
	var env []string
	if tr != nil {
		env = []string{"GODEBUG=gctrace=1"}
	}
	ctl := newClient()
	clients := []*http.Client{newClient(), newClient()}
	srcs := [][]tdb.VID{
		sources(g.NumVertices(), cfg.seed, 0, 1<<16),
		sources(g.NumVertices(), cfg.seed, 1, 1<<16),
	}

	var p *serverProc
	defer func() { p.kill() }()
	var setups, restarts []time.Duration
	for i := 0; i < serveSetupRounds; i++ {
		p.kill()
		var first time.Duration
		p, first, err = launch(cfg, fmt.Sprintf("serve-read-%d", i), args, env, ctl, srcs[0][0])
		if err != nil {
			return err
		}
		restarts = append(restarts, first)
		if err := warmUp(ctx, clients, p.base, srcs); err != nil {
			return err
		}
		setups = append(setups, time.Since(p.started))
	}

	// Timed region: two closed-loop connections.
	cpu0, err := cpuTime(p.pid())
	if err != nil {
		return err
	}
	logAt := len(p.log())
	rssLoop := sampleRSS(p.pid())
	readers := make([]*reader, len(clients))
	for i, c := range clients {
		readers[i] = &reader{c: c, base: p.base, srcs: srcs[i]}
		if tr != nil {
			readers[i].tr = newTracer(tr.t0)
		}
	}
	start := time.Now()
	until := start.Add(cfg.duration())
	if err := inParallel(readers, func(r *reader) error { return r.run(ctx, until, 0, nil) }); err != nil {
		return err
	}
	elapsed := time.Since(start)
	var lat, traced sample
	var answers []query
	for _, r := range readers {
		tr.merge(r.tr)
		lat = append(lat, r.lat...)
		traced = append(traced, r.traced...)
		answers = append(answers, r.answers...)
	}
	rss, err := rssLoop.median()
	if err != nil {
		return err
	}
	peak, err := statusMiB(p.pid(), "VmHWM")
	if err != nil {
		return err
	}
	stats, err := p.stats(ctl)
	if err != nil {
		return err
	}
	cv, err := p.cover(ctl)
	if err != nil {
		return err
	}
	if tr != nil {
		if err := serverRuntime(rep, p, cpu0, logAt, len(answers)); err != nil {
			return err
		}
	}
	p.kill()

	// Answer checks, outside the timed region.
	if err := checkCover(g, cv.Cover, true); err != nil {
		rep.wrongAnswer(fmt.Errorf("seed cover: %w", err))
	}
	rechecked := 0
	for _, q := range answers {
		rep.attempted++
		switch {
		case q.code != http.StatusOK:
			countStatus(rep, q.code)
		case q.resp.Found:
			if err := checkCycle(g.HasEdge, q.src, q.resp.Cycle); err != nil {
				rep.wrongAnswer(err)
			}
		case rechecked < noCycleRechecks:
			rechecked++
			if err := checkNoCycle(g, q.src); err != nil {
				rep.wrongAnswer(err)
			}
		}
	}

	tail := lat.quantile(0.99)
	completed := float64(len(answers))
	if tr == nil {
		rep.set("setup_s", medianSeconds(setups), "s")
		rep.set("op_ms", lat.median(), "ms")
		rep.set("restart_s", medianSeconds(restarts), "s")
		rep.set("cover_size", float64(len(cv.Cover)), "vertices")
		rep.set("rss_mb", rss, "MiB")
	}
	rep.note("setup_s", medianSeconds(setups), "s", fmt.Sprintf("median of %d launches: mmap open, seed solve, warm-up", serveSetupRounds))
	rep.note("query_ms", lat.median(), "ms", fmt.Sprintf("median of %d /v1/cycle requests over loopback", len(lat)))
	rep.note("query_p99_ms", tail, "ms", fmt.Sprintf("%d requests, %d beyond", len(lat), lat.beyond(0.99)))
	rep.note("query_p999_ms", lat.quantile(0.999), "ms", fmt.Sprintf("%d beyond", lat.beyond(0.999)))
	rep.note("queries_per_s", completed/elapsed.Seconds(), "req/s", "2 closed-loop connections")
	rep.note("cover_size", float64(len(cv.Cover)), "vertices", "seed cover, exact")
	rep.note("rss_mb", rss, "MiB", "median VmRSS of tdbserve over the timed region")
	rep.note("rss_peak_mb", peak, "MiB", "VmHWM of tdbserve")
	rep.note("restart_s", medianSeconds(restarts), "s", "launch to first /v1/cycle answer")

	if tr == nil {
		return nil
	}
	rep.set("trace.op_ms", traced.median(), "ms")
	rep.set("trace.overhead_ms", traced.median()-lat.median(), "ms")
	return probeLayers(ctx, cfg, layerInputs{
		g: g, graphPath: graphPath, mappedPath: mapped, cover: cv.Cover,
		sources: srcs[0], subprocess: stats,
	}, rep, tr)
}

// runServeWrite drives tdbserve (memory storage, -data-dir, -fsync always)
// with a fixed, seeded stream of waited 64-edge batches on one connection
// and /v1/cycle reads on a second, then kills it with SIGKILL and restarts
// it from copies of its data directory.
func runServeWrite(ctx context.Context, cfg config, spec workloadSpec, rep *report, tr *tracer) error {
	g, err := makeGraph(spec.dataset, cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	describe(&rep.env, g)
	rep.env.Fsync = "always"
	graphPath := filepath.Join(cfg.work, "graph.bin")
	if err := tdb.SaveGraph(graphPath, g); err != nil {
		return err
	}
	batches := batchesPerSecond * cfg.seconds
	stream := writeStream(g, batches, cfg.seed)
	rep.env.StreamOps = batches * batchSize
	bodies := make([][]byte, batches)
	for i, b := range stream {
		if bodies[i], err = json.Marshal(server.UpdateRequest{Updates: wireUpdates(b), Wait: true}); err != nil {
			return err
		}
	}
	// One periodic checkpoint lands at 55% of the stream, so the killed
	// directory holds it plus a WAL tail of 45% of the batches for recovery
	// to replay. Each record adds its update count plus one to the cadence.
	ckptEvery := (batchSize + 1) * max(batches*55/100, 1)
	common := []string{"-k", fmt.Sprint(hopK), "-minlen", fmt.Sprint(minLen), "-fsync", "always"}
	var env []string
	if tr != nil {
		env = []string{"GODEBUG=gctrace=1"}
	}
	ctl := newClient()
	writer, readClient := newClient(), newClient()
	readSrcs := sources(g.NumVertices(), cfg.seed, 1, 1<<16)

	var p *serverProc
	defer func() { p.kill() }()
	var setups []time.Duration
	var dataDir string
	for i := 0; i < serveSetupRounds; i++ {
		p.kill()
		// tdbserve writes checkpoint 0 before it creates the directory, so
		// the directory must exist.
		dataDir = filepath.Join(cfg.work, fmt.Sprintf("data-%d", i))
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return err
		}
		args := append(append([]string{}, common...), "-graph", graphPath, "-data-dir", dataDir,
			"-publish-every", fmt.Sprint(publishEvery*batchSize), "-checkpoint-every", fmt.Sprint(ckptEvery))
		p, _, err = launch(cfg, fmt.Sprintf("serve-write-%d", i), args, env, ctl, readSrcs[0])
		if err != nil {
			return err
		}
		if err := warmUp(ctx, []*http.Client{readClient}, p.base, [][]tdb.VID{readSrcs}); err != nil {
			return err
		}
		setups = append(setups, time.Since(p.started))
	}
	seedCover, err := p.cover(ctl)
	if err != nil {
		return err
	}
	if err := checkCover(g, seedCover.Cover, true); err != nil {
		rep.wrongAnswer(fmt.Errorf("seed cover: %w", err))
	}
	epoch0 := seedCover.Epoch

	// Timed region: the write stream on one connection, reads beside it.
	cpu0, err := cpuTime(p.pid())
	if err != nil {
		return err
	}
	logAt := len(p.log())
	rssLoop := sampleRSS(p.pid())
	var writeLat, writeTraced sample
	writeResp := make([]server.UpdateResponse, batches)
	writeCode := make([]int, batches)
	var wtr *tracer
	rd := &reader{c: readClient, base: p.base, srcs: readSrcs, pause: readPause}
	if tr != nil {
		wtr, rd.tr = newTracer(tr.t0), newTracer(tr.t0)
	}
	// write sends batch i and records its latency and answer.
	write := func(i int) error {
		var t *tracer
		if wtr != nil && i%2 == 0 {
			t = wtr
		}
		root := t.begin(int64(i), -1, "bench.op")
		call := t.begin(int64(i), root, "client.POST /v1/update")
		t0 := time.Now()
		code, b, err := post(writer, p.base+"/v1/update", bodies[i])
		d := time.Since(t0)
		t.end(call)
		t.end(root)
		if err != nil {
			return err
		}
		writeCode[i] = code
		if code == http.StatusOK {
			if err := json.Unmarshal(b, &writeResp[i]); err != nil {
				return fmt.Errorf("decoding /v1/update answer: %w", err)
			}
		}
		if t != nil {
			writeTraced.add(d)
		} else {
			writeLat.add(d)
		}
		return nil
	}
	stop := make(chan struct{})
	readErr := make(chan error, 1)
	go func() { readErr <- rd.run(ctx, time.Time{}, 0, stop) }()
	start := time.Now()
	var writeErr error
	for i := 0; i < batches && writeErr == nil; i++ {
		writeErr = write(i)
	}
	elapsed := time.Since(start)
	close(stop)
	if err := <-readErr; writeErr == nil {
		writeErr = err
	}
	if writeErr != nil {
		return writeErr
	}
	tr.merge(wtr)
	tr.merge(rd.tr)
	reads, readLat := rd.answers, rd.lat

	// Publish the tail so /v1/cover shows every acknowledged batch.
	var fin server.UpdateResponse
	if err := postJSON(ctl, p.base+"/v1/update", server.UpdateRequest{Publish: true, Wait: true}, &fin); err != nil {
		return err
	}
	final, err := p.cover(ctl)
	if err != nil {
		return err
	}
	stats, err := p.stats(ctl)
	if err != nil {
		return err
	}
	rss, err := rssLoop.median()
	if err != nil {
		return err
	}
	peak, err := statusMiB(p.pid(), "VmHWM")
	if err != nil {
		return err
	}
	if tr != nil {
		if err := serverRuntime(rep, p, cpu0, logAt, batches); err != nil {
			return err
		}
	}
	p.kill() // SIGKILL: recovery must work from what fsync=always made durable
	diskBytes, err := dirBytes(dataDir)
	if err != nil {
		return err
	}
	tailDir := filepath.Join(cfg.work, "tail")
	if err := copyDir(dataDir, tailDir); err != nil {
		return err
	}
	tail, err := wal.Recover(tailDir)
	if err != nil {
		return err
	}

	// Restarts from fresh copies of the killed directory.
	var restarts []time.Duration
	var recovered *server.CoverResponse
	var recoveredFP uint64
	for i := 0; i < recoverRounds; i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("recover-%d", i))
		if err := copyDir(dataDir, dir); err != nil {
			return err
		}
		q, first, err := launch(cfg, fmt.Sprintf("recover-%d", i), append(append([]string{}, common...), "-data-dir", dir), nil, ctl, readSrcs[0])
		if err != nil {
			return err
		}
		restarts = append(restarts, first)
		if i == 0 {
			recovered, err = q.cover(ctl)
		}
		q.kill()
		if err != nil {
			return err
		}
		if i == 0 {
			if recoveredFP, err = checkpointFingerprint(dir); err != nil {
				return err
			}
		}
	}

	// Answer checks, outside the timed region.
	acked := 0
	prefixOf := map[uint64]int{epoch0: 0}
	for i, code := range writeCode {
		rep.attempted++
		if code != http.StatusOK {
			countStatus(rep, code)
			continue
		}
		acked += len(stream[i])
		if _, ok := prefixOf[writeResp[i].Epoch]; !ok {
			prefixOf[writeResp[i].Epoch] = i + 1
		}
	}
	want := applyStream(g, stream, batches)
	if final.N != want.NumVertices() || final.M != want.NumEdges() {
		rep.wrongAnswer(fmt.Errorf("final epoch has n=%d m=%d, seed + stream gives n=%d m=%d",
			final.N, final.M, want.NumVertices(), want.NumEdges()))
	}
	if err := checkCover(want, final.Cover, false); err != nil {
		rep.wrongAnswer(fmt.Errorf("final cover: %w", err))
	}
	wantFP := dynamic.StateFingerprint(want, final.Cover, hopK, minLen)
	if err := checkRecovered(final.Cover, recovered.Cover, wantFP, recoveredFP); err != nil {
		rep.wrongAnswer(err)
	}
	checkReads(rep, g, stream, prefixOf, reads)

	wtail, rtail := writeLat.quantile(0.99), readLat.quantile(0.99)
	perUpdate := float64(diskBytes) / float64(max(acked, 1))
	if tr == nil {
		rep.set("setup_s", medianSeconds(setups), "s")
		rep.set("op_ms", writeLat.median(), "ms")
		rep.set("restart_s", medianSeconds(restarts), "s")
		rep.set("cover_size", float64(len(final.Cover)), "vertices")
		rep.set("rss_mb", rss, "MiB")
	}
	rep.note("setup_s", medianSeconds(setups), "s", fmt.Sprintf("median of %d launches: load, seed solve, checkpoint 0, warm-up", serveSetupRounds))
	rep.note("write_ms", writeLat.median(), "ms", fmt.Sprintf("median ack latency of %d waited %d-edge batches", len(writeLat), batchSize))
	rep.note("write_p99_ms", wtail, "ms", fmt.Sprintf("%d batches, %d beyond", len(writeLat), writeLat.beyond(0.99)))
	rep.note("batches_per_s", float64(len(writeLat)+len(writeTraced))/elapsed.Seconds(), "1/s", "one connection, each batch waited")
	rep.note("query_ms", readLat.median(), "ms", fmt.Sprintf("median of %d /v1/cycle reads beside the writes", len(readLat)))
	rep.note("query_p99_ms", rtail, "ms", fmt.Sprintf("%d reads, %d beyond", len(readLat), readLat.beyond(0.99)))
	rep.note("cover_size", float64(len(final.Cover)), "vertices", "final maintained cover, exact")
	rep.note("rss_mb", rss, "MiB", "median VmRSS of tdbserve over the timed region")
	rep.note("rss_peak_mb", peak, "MiB", "VmHWM of tdbserve")
	rep.note("recover_s", medianSeconds(restarts), "s", fmt.Sprintf("median of %d restarts to first answer, WAL tail of %d records", recoverRounds, len(tail.Records)))
	rep.note("disk_bytes_per_update", perUpdate, "B", fmt.Sprintf("WAL + checkpoints at the kill, %d bytes / %d updates, exact", diskBytes, acked))
	rep.note("checkpoints", float64(stats.WALCheckpoints), "count", "periodic checkpoints during the stream")

	if tr == nil {
		return nil
	}
	rep.set("trace.op_ms", writeTraced.median(), "ms")
	rep.set("trace.overhead_ms", writeTraced.median()-writeLat.median(), "ms")
	rep.set("wal.disk_bytes_per_update", perUpdate, "B")
	return probeLayers(ctx, cfg, layerInputs{
		g: g, graphPath: graphPath, cover: seedCover.Cover, stream: stream, sources: readSrcs,
		killedDir: dataDir, subprocess: stats, acked: acked,
	}, rep, tr)
}

// checkpointFingerprint loads the newest checkpoint in dir — the state a
// restarted server wrote after recovering — and returns its fingerprint.
func checkpointFingerprint(dir string) (uint64, error) {
	rec, err := wal.Recover(dir)
	if err != nil {
		return 0, err
	}
	if rec.Checkpoint == nil || len(rec.Records) != 0 {
		return 0, fmt.Errorf("%s: want a recovery checkpoint and no later records, found %d records", dir, len(rec.Records))
	}
	m, err := dynamic.ReadState(bytes.NewReader(rec.Checkpoint))
	if err != nil {
		return 0, err
	}
	return m.Fingerprint(), nil
}

// checkReads validates the reads served beside the writes against the
// graph of the epoch each was answered from: seed plus the batches that
// epoch includes.
func checkReads(rep *report, g *tdb.Graph, stream [][]dynamic.Update, prefixOf map[uint64]int, reads []query) {
	toggles := map[tdb.Edge][]int{}
	for i, batch := range stream {
		for _, u := range batch {
			e := tdb.Edge{U: u.U, V: u.V}
			toggles[e] = append(toggles[e], i)
		}
	}
	present := func(p int) func(u, v tdb.VID) bool {
		return func(u, v tdb.VID) bool {
			n, _ := slices.BinarySearch(toggles[tdb.Edge{U: u, V: v}], p)
			return g.HasEdge(u, v) != (n%2 == 1)
		}
	}
	rechecked := map[int]bool{}
	for _, q := range reads {
		rep.attempted++
		if q.code != http.StatusOK {
			countStatus(rep, q.code)
			continue
		}
		p, ok := prefixOf[q.resp.Epoch]
		if !ok {
			rep.wrongAnswer(fmt.Errorf("read answered from epoch %d, which no acknowledged batch published", q.resp.Epoch))
			continue
		}
		if q.resp.Found {
			if err := checkCycle(present(p), q.src, q.resp.Cycle); err != nil {
				rep.wrongAnswer(fmt.Errorf("epoch %d: %w", q.resp.Epoch, err))
			}
		} else if len(rechecked) < 3 && !rechecked[p] {
			rechecked[p] = true
			if err := checkNoCycle(applyStream(g, stream, p), q.src); err != nil {
				rep.wrongAnswer(fmt.Errorf("epoch %d: %w", q.resp.Epoch, err))
			}
		}
	}
}
