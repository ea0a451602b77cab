package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tdb"
	"tdb/internal/core"
	"tdb/internal/digraph"
	"tdb/internal/dynamic"
	"tdb/internal/scc"
	"tdb/internal/server"
	"tdb/internal/wal"
)

// perLayer lists the metrics a traced run reports, on every workload. Each
// probe calls one module's public functions on the workload's own inputs,
// from this package, inside a span.
var perLayer = []metricDef{
	{"digraph.load_ms", "ms"},
	{"digraph.open_mapped_ms", "ms"},
	{"scc.compute_ms", "ms"},
	{"scc.nontrivial", "count"},
	{"core.solve_ms", "ms"},
	{"core.solve_sequential_ms", "ms"},
	{"core.checked", "count"},
	{"core.filter_pruned", "count"},
	{"core.prepass_resolved", "count"},
	{"core.scc_skipped", "count"},
	{"core.prune_ratio", "ratio"},
	{"core.allocs_per_solve", "count"},
	{"core.alloc_mb_per_solve", "MiB"},
	{"core.strategy", "id"}, // 0 sequential, 1 scc-parallel, 2 prepass
	{"core.workers", "count"},
	{"core.counter_spread", "ratio"}, // (max-min)/median of the most varying counter
	{"cycle.queries", "count"},
	{"cycle.edge_scans", "count"},
	{"cycle.pushes", "count"},
	{"cycle.bfs_visited", "count"},
	{"cycle.batches", "count"},
	{"cycle.cycles_found", "count"},
	{"cycle.filter_batch_width", "lanes"},
	{"cycle.find_cycle_us", "us"},
	{"dynamic.apply_batch_ms", "ms"},
	{"dynamic.publish_ms", "ms"},
	{"dynamic.epoch_acquire_ns", "ns"},
	{"dynamic.write_state_ms", "ms"},
	{"dynamic.read_state_ms", "ms"},
	{"wal.append_us", "us"},
	{"wal.fsyncs_per_update", "ratio"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.recover_ms", "ms"},
	{"wal.disk_bytes_per_update", "B"},
	{"server.cycle_handler_us", "us"},
	{"server.cycle_loopback_us", "us"}, // the same queries over a loopback socket
	{"server.update_handler_ms", "ms"},
	{"server.shed", "count"},
	{"server.deadlines", "count"},
	{"server.degraded", "count"},
	{"server.panics", "count"},
	{"server.epochs_published", "count"},
	{"cpu_ms_per_op", "ms"},
	{"gc_cycles", "count"},
	{"gc_pause_ms", "ms"},
	{"trace.op_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"self.bench_ms", "ms"},
	{"self.client_ms", "ms"},
	{"self.digraph_ms", "ms"},
	{"self.scc_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.cycle_ms", "ms"},
	{"self.dynamic_ms", "ms"},
	{"self.wal_ms", "ms"},
	{"self.server_ms", "ms"},
}

// Probe sizes: fixed counts, so per-layer numbers compare across runs.
const (
	probeRepeats  = 5    // loads, opens, SCC passes, state round trips
	probeSolves   = 7    // solves per strategy
	probeBatches  = 96   // write batches through maintainer, WAL and handler
	probeQueries  = 2000 // point queries through FindCycle and the handler
	publishEvery  = 8    // batches per epoch publish (512 updates, the server default)
	acquireRounds = 100000
)

// layerInputs are the workload's inputs handed to the probes. Fields the
// workload does not have are derived from the graph.
type layerInputs struct {
	g          *tdb.Graph
	graphPath  string    // binary graph file
	mappedPath string    // TDBCSR1 file; written when empty
	cover      []tdb.VID // the verified seed cover
	stream     [][]dynamic.Update
	sources    []tdb.VID
	// killedDir is serve-write's data directory as the crash left it; when
	// set, wal.recover_ms replays copies of it instead of the probe log.
	killedDir string
	// subprocess, when set, supplies the server and WAL counters from the
	// tdbserve under load instead of the in-process probe server.
	subprocess *server.StatsResponse
	acked      int // updates acknowledged by the subprocess
}

// probe times fn repeats times inside spans named name and returns the
// latencies.
func probe(tr *tracer, name string, repeats int, fn func(i int) error) (sample, error) {
	var s sample
	for i := 0; i < repeats; i++ {
		sp := tr.begin(int64(i), -1, name)
		t0 := time.Now()
		err := fn(i)
		s.add(time.Since(t0))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return s, nil
}

// probeLayers runs every layer probe and sets the per-layer metrics.
func probeLayers(ctx context.Context, cfg config, in layerInputs, rep *report, tr *tracer) error {
	g := in.g
	if in.mappedPath == "" {
		in.mappedPath = filepath.Join(cfg.work, "probe.tdbcsr")
		if err := tdb.SaveMapped(in.mappedPath, g); err != nil {
			return err
		}
	}
	if in.stream == nil {
		in.stream = writeStream(g, probeBatches, cfg.seed)
	}
	if len(in.stream) > probeBatches {
		in.stream = in.stream[:probeBatches]
	}
	if in.sources == nil {
		in.sources = sources(g.NumVertices(), cfg.seed, 0, probeQueries)
	}
	if len(in.sources) > probeQueries {
		in.sources = in.sources[:probeQueries]
	}
	steps := []func(context.Context, config, layerInputs, *report, *tracer) error{
		probeDigraph, probeSCC, probeCore, probeDynamic, probeWAL, probeServer,
	}
	for _, step := range steps {
		if err := step(ctx, cfg, in, rep, tr); err != nil {
			return err
		}
	}
	selfTimes(rep, tr)
	return nil
}

func probeDigraph(_ context.Context, _ config, in layerInputs, rep *report, tr *tracer) error {
	load, err := probe(tr, "digraph.LoadGraph", probeRepeats, func(int) error {
		_, err := tdb.LoadGraph(in.graphPath)
		return err
	})
	if err != nil {
		return err
	}
	open, err := probe(tr, "digraph.OpenMapped", probeRepeats, func(int) error {
		mg, err := tdb.OpenMapped(in.mappedPath)
		if err != nil {
			return err
		}
		return mg.Close()
	})
	if err != nil {
		return err
	}
	rep.set("digraph.load_ms", load.median(), "ms")
	rep.set("digraph.open_mapped_ms", open.median(), "ms")
	return nil
}

func probeSCC(_ context.Context, _ config, in layerInputs, rep *report, tr *tracer) error {
	var r *scc.Result
	s, err := probe(tr, "scc.Compute", probeRepeats, func(int) error {
		r = scc.Compute(in.g)
		return nil
	})
	if err != nil {
		return err
	}
	nontrivial := 0
	for _, sz := range r.Size {
		if sz >= 2 {
			nontrivial++
		}
	}
	rep.set("scc.compute_ms", s.median(), "ms")
	rep.set("scc.nontrivial", float64(nontrivial), "count")
	return nil
}

var strategyIDs = map[string]float64{"sequential": 0, "scc-parallel": 1, "prepass": 2}

func probeCore(ctx context.Context, _ config, in layerInputs, rep *report, tr *tracer) error {
	eng := tdb.NewEngine(in.g)
	if _, err := eng.Solve(ctx, hopK); err != nil { // warm the engine's pools
		return err
	}
	var results []*tdb.Result
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	solve, err := probe(tr, "core.Engine.Solve", probeSolves, func(int) error {
		res, err := eng.Solve(ctx, hopK)
		results = append(results, res)
		return err
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	seq, err := probe(tr, "core.Engine.Solve/sequential", probeSolves, func(int) error {
		_, err := eng.Solve(ctx, hopK, tdb.WithStrategy(tdb.StrategySequential))
		return err
	})
	if err != nil {
		return err
	}
	for _, res := range results {
		if coverHash(res.Cover) != coverHash(in.cover) {
			rep.wrongAnswer(fmt.Errorf("probe solve: cover of %d vertices differs from the verified cover", len(res.Cover)))
		}
	}
	st := results[0].Stats
	rep.set("core.solve_ms", solve.median(), "ms")
	rep.set("core.solve_sequential_ms", seq.median(), "ms")
	rep.set("core.allocs_per_solve", float64(ms1.Mallocs-ms0.Mallocs)/probeSolves, "count")
	rep.set("core.alloc_mb_per_solve", float64(ms1.TotalAlloc-ms0.TotalAlloc)/probeSolves/(1<<20), "MiB")
	rep.set("core.strategy", strategyIDs[st.Strategy], "id")
	rep.set("core.workers", float64(st.Workers), "count")
	rep.set("cycle.filter_batch_width", float64(st.FilterBatchWidth), "lanes")

	// Counters: the median over the probe solves; a counter that does not
	// repeat exactly (the clock-driven filter tier and lane width) is named
	// in the output and its range feeds core.counter_spread.
	counters := []struct {
		name string
		get  func(s tdb.Stats) int64
	}{
		{"core.checked", func(s tdb.Stats) int64 { return s.Checked }},
		{"core.filter_pruned", func(s tdb.Stats) int64 { return s.FilterPruned }},
		{"core.prepass_resolved", func(s tdb.Stats) int64 { return s.PrepassResolved }},
		{"core.scc_skipped", func(s tdb.Stats) int64 { return s.SCCSkipped }},
		{"cycle.queries", func(s tdb.Stats) int64 { return s.Detector.Queries }},
		{"cycle.edge_scans", func(s tdb.Stats) int64 { return s.Detector.EdgeScans }},
		{"cycle.pushes", func(s tdb.Stats) int64 { return s.Detector.Pushes }},
		{"cycle.bfs_visited", func(s tdb.Stats) int64 { return s.Detector.BFSVisited }},
		{"cycle.batches", func(s tdb.Stats) int64 { return s.Detector.Batches }},
		{"cycle.cycles_found", func(s tdb.Stats) int64 { return s.Detector.CyclesFound }},
	}
	worst := 0.0
	var varying []string
	med := map[string]float64{}
	for _, c := range counters {
		vs := make([]float64, len(results))
		for i, res := range results {
			vs[i] = float64(c.get(res.Stats))
		}
		med[c.name] = sample(vs).median()
		rep.set(c.name, med[c.name], "count")
		if sp := spread(vs); sp > 0 {
			varying = append(varying, fmt.Sprintf("%s=%.3g", c.name, sp))
			worst = max(worst, sp)
		}
	}
	rep.set("core.counter_spread", worst, "ratio")
	// Checked excludes the SCC-skipped candidates, so the ratio counts the
	// checked candidates the filter or the prepass resolved.
	resolved := med["core.filter_pruned"] + med["core.prepass_resolved"]
	rep.set("core.prune_ratio", resolved/max(med["core.checked"], 1), "ratio")
	if len(varying) == 0 {
		varying = []string{"none"}
	}
	rep.note("core.strategy", float64(st.Workers), "workers", st.Strategy)
	rep.note("core.counter_spread", worst, "ratio", "varying counters (range/median): "+strings.Join(varying, " "))

	var lat sample
	for i, s := range in.sources {
		sp := tr.begin(int64(i), -1, "cycle.Engine.FindCycle")
		t0 := time.Now()
		c := eng.FindCycle(hopK, s)
		lat.add(time.Since(t0))
		tr.end(sp)
		if c != nil {
			if err := checkCycle(in.g.HasEdge, s, c); err != nil {
				rep.wrongAnswer(err)
			}
		}
	}
	rep.set("cycle.find_cycle_us", lat.median()*1e3, "us")
	return nil
}

func probeDynamic(_ context.Context, _ config, in layerInputs, rep *report, tr *tracer) error {
	m, err := dynamic.FromGraph(in.g, hopK, minLen, in.cover)
	if err != nil {
		return err
	}
	ring := dynamic.NewEpochRing()
	engine := func(g digraph.Adjacency, _ []tdb.VID) any { return core.NewEngine(g) }
	m.PublishSnapshot(ring, engine)
	// One pass over the stream, publishing on the server's cadence so
	// compactions fall where they fall in tdbserve.
	var apply, pub sample
	for i, batch := range in.stream {
		sp := tr.begin(int64(i), -1, "dynamic.Maintainer.ApplyBatch")
		t0 := time.Now()
		m.ApplyBatch(batch)
		apply.add(time.Since(t0))
		tr.end(sp)
		if (i+1)%publishEvery == 0 {
			sp := tr.begin(int64(i), -1, "dynamic.Maintainer.PublishSnapshot")
			t0 := time.Now()
			m.PublishSnapshot(ring, engine)
			pub.add(time.Since(t0))
			tr.end(sp)
		}
	}
	var wg sync.WaitGroup
	sp := tr.begin(0, -1, "dynamic.EpochRing.Acquire")
	t0 := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < acquireRounds; i++ {
				if e := ring.Acquire(); e != nil {
					e.Release()
				}
			}
		}()
	}
	wg.Wait()
	acquire := time.Since(t0)
	tr.end(sp)

	var state bytes.Buffer
	write, err := probe(tr, "dynamic.Maintainer.WriteState", probeRepeats, func(int) error {
		state.Reset()
		return m.WriteState(&state)
	})
	if err != nil {
		return err
	}
	var back *dynamic.Maintainer
	read, err := probe(tr, "dynamic.ReadState", probeRepeats, func(int) error {
		back, err = dynamic.ReadState(bytes.NewReader(state.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	if back.Fingerprint() != m.Fingerprint() {
		rep.wrongAnswer(fmt.Errorf("state round trip changed the fingerprint"))
	}
	rep.set("dynamic.apply_batch_ms", apply.median(), "ms")
	rep.set("dynamic.publish_ms", pub.median(), "ms")
	rep.set("dynamic.epoch_acquire_ns", float64(acquire.Nanoseconds())/acquireRounds, "ns")
	rep.set("dynamic.write_state_ms", write.median(), "ms")
	rep.set("dynamic.read_state_ms", read.median(), "ms")
	return nil
}

// walRecord encodes a batch the way tdbserve logs it (vertex count u64,
// update count u32, then op u8, u u32, v u32 per update), so probe records
// have the server's size.
func walRecord(n int, batch []dynamic.Update) []byte {
	buf := make([]byte, 12, 12+9*len(batch))
	binary.LittleEndian.PutUint64(buf[0:8], uint64(n))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(batch)))
	for _, u := range batch {
		buf = append(buf, byte(u.Op))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(u.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(u.V))
	}
	return buf
}

func probeWAL(_ context.Context, cfg config, in layerInputs, rep *report, tr *tracer) error {
	m, err := dynamic.FromGraph(in.g, hopK, minLen, in.cover)
	if err != nil {
		return err
	}
	var state bytes.Buffer
	if err := m.WriteState(&state); err != nil {
		return err
	}
	dir := filepath.Join(cfg.work, "wal-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ckpt, err := probe(tr, "wal.WriteCheckpoint", probeRepeats, func(i int) error {
		return wal.WriteCheckpoint(dir, 0, state.Bytes())
	})
	if err != nil {
		return err
	}
	l, err := wal.Create(dir, 1, wal.Options{Fsync: wal.FsyncAlways})
	if err != nil {
		return err
	}
	appendLat, err := probe(tr, "wal.Log.Append", len(in.stream), func(i int) error {
		_, err := l.Append(walRecord(in.g.NumVertices(), in.stream[i]))
		return err
	})
	fsyncs := l.Fsyncs()
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	updates := len(in.stream) * batchSize
	probeBytes, err := dirBytes(dir)
	if err != nil {
		return err
	}

	// Recover copies of the directory, so a truncated torn tail in one
	// repeat does not change the next; the copy is not timed.
	src := dir
	if in.killedDir != "" {
		src = in.killedDir
	}
	copies := make([]string, probeRepeats)
	for i := range copies {
		copies[i] = filepath.Join(cfg.work, fmt.Sprintf("wal-recover-%d", i))
		if err := copyDir(src, copies[i]); err != nil {
			return err
		}
	}
	recov, err := probe(tr, "wal.Recover", probeRepeats, func(i int) error {
		rec, err := wal.Recover(copies[i])
		if err == nil && rec.Checkpoint == nil {
			err = fmt.Errorf("no checkpoint recovered from %s", src)
		}
		return err
	})
	if err != nil {
		return err
	}
	rep.set("wal.append_us", appendLat.median()*1e3, "us")
	rep.set("wal.checkpoint_ms", ckpt.median(), "ms")
	rep.set("wal.recover_ms", recov.median(), "ms")
	// serve-write reports the figures of the tdbserve under load (its
	// caller sets disk bytes); the other workloads those of the probe log.
	if st := in.subprocess; st != nil && st.WALEnabled {
		rep.set("wal.fsyncs_per_update", float64(st.WALFsyncs)/float64(max(in.acked, 1)), "ratio")
	} else {
		rep.set("wal.fsyncs_per_update", float64(fsyncs)/float64(updates), "ratio")
		rep.set("wal.disk_bytes_per_update", float64(probeBytes)/float64(updates), "B")
	}
	return nil
}

func probeServer(ctx context.Context, cfg config, in layerInputs, rep *report, tr *tracer) error {
	dir := filepath.Join(cfg.work, "server-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s, err := server.New(server.Config{
		K: hopK, MinLen: minLen, Seed: in.g, SeedCover: in.cover, DataDir: dir, Fsync: wal.FsyncAlways,
	})
	if err != nil {
		return err
	}
	h := s.Handler()
	serve := func(method, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		return rec, time.Since(t0)
	}
	// The same queries over a loopback socket: the difference to the
	// handler alone is the transport's share of a query.
	ts := httptest.NewServer(h)
	c := newClient()
	var loop sample
	for i, src := range in.sources {
		sp := tr.begin(int64(i), -1, "client.POST /v1/cycle")
		t0 := time.Now()
		code, _, err := post(c, ts.URL+"/v1/cycle", cycleBody(src))
		loop.add(time.Since(t0))
		tr.end(sp)
		if err != nil {
			ts.Close()
			return err
		}
		if code != http.StatusOK {
			rep.fail(fmt.Sprintf("loopback_%d", code))
		}
	}
	c.CloseIdleConnections()
	ts.Close()
	var cyc, upd sample
	for i, src := range in.sources {
		sp := tr.begin(int64(i), -1, "server.Handler/v1/cycle")
		rec, d := serve(http.MethodPost, "/v1/cycle", cycleBody(src))
		tr.end(sp)
		cyc.add(d)
		if rec.Code != http.StatusOK {
			rep.fail(fmt.Sprintf("handler_%d", rec.Code))
		}
	}
	for i, batch := range in.stream {
		body, err := json.Marshal(server.UpdateRequest{Updates: wireUpdates(batch), Wait: true})
		if err != nil {
			return err
		}
		sp := tr.begin(int64(i), -1, "server.Handler/v1/update")
		rec, d := serve(http.MethodPost, "/v1/update", body)
		tr.end(sp)
		upd.add(d)
		if rec.Code != http.StatusOK {
			rep.fail(fmt.Sprintf("handler_%d", rec.Code))
		}
	}
	stats := in.subprocess
	if stats == nil {
		rec, _ := serve(http.MethodGet, "/v1/stats", nil)
		stats = &server.StatsResponse{}
		if err := json.Unmarshal(rec.Body.Bytes(), stats); err != nil {
			return fmt.Errorf("decoding /v1/stats: %w", err)
		}
	}
	shutCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Shutdown(shutCtx); err != nil {
		return err
	}
	rep.set("server.cycle_handler_us", cyc.median()*1e3, "us")
	rep.set("server.cycle_loopback_us", loop.median()*1e3, "us")
	rep.set("server.update_handler_ms", upd.median(), "ms")
	rep.set("server.shed", float64(stats.Shed), "count")
	rep.set("server.deadlines", float64(stats.Deadlines), "count")
	rep.set("server.degraded", float64(stats.Degraded), "count")
	rep.set("server.panics", float64(stats.Panics+stats.WriterPanics), "count")
	rep.set("server.epochs_published", float64(stats.Epoch), "count")
	return nil
}

// selfTimes reports each layer's self time: its spans' durations minus the
// parts covered by child spans, summed over the run.
func selfTimes(rep *report, tr *tracer) {
	layers := map[string]float64{}
	for _, d := range perLayer {
		if l, ok := strings.CutPrefix(d.name, "self."); ok {
			layers[strings.TrimSuffix(l, "_ms")] = 0
		}
	}
	st := tr.selfTimes()
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		layer, _, _ := strings.Cut(name, ".")
		if _, ok := layers[layer]; ok {
			layers[layer] += float64(st[name].Self.Nanoseconds()) / 1e6
		}
		rep.note("span "+name, float64(st[name].Self.Nanoseconds())/1e6, "ms",
			fmt.Sprintf("self time over %d spans, total %.1f ms", st[name].Count, float64(st[name].Total.Nanoseconds())/1e6))
	}
	for layer, ms := range layers {
		rep.set("self."+layer+"_ms", ms, "ms")
	}
}

func wireUpdates(batch []dynamic.Update) []server.UpdateOp {
	ops := make([]server.UpdateOp, len(batch))
	for i, u := range batch {
		op := "insert"
		if u.Op == dynamic.OpDelete {
			op = "delete"
		}
		ops[i] = server.UpdateOp{Op: op, U: u.U, V: u.V}
	}
	return ops
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
