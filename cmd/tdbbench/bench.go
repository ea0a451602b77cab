package main

// The -bench mode: a fixed micro-benchmark suite over the reference
// workloads, written as a machine-readable BENCH_<timestamp>.json so the
// perf trajectory of the hot paths is recorded per commit (the CI
// bench-smoke job uploads the file as an artifact). The suite is
// self-timed — warm-up, then iterations until a per-benchmark time budget
// — so it runs in a plain binary without the testing harness.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tdb"
	"tdb/internal/cycle"
	"tdb/internal/gen"
)

// benchEntry is one benchmark's measurement.
type benchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// benchReport is the BENCH_*.json document.
type benchReport struct {
	Generated  string                `json:"generated"`
	GoVersion  string                `json:"go_version"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
}

// measure runs fn repeatedly for at least budget (after one warm-up call)
// and reports per-op time and allocation averages.
func measure(budget time.Duration, fn func()) benchEntry {
	fn() // warm up: pools, lazy buffers, code paths
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for time.Since(start) < budget {
		fn()
		n++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return benchEntry{
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		Iterations:  n,
	}
}

// runBenchSuite executes the suite and writes BENCH_<timestamp>.json into
// dir, returning the file path.
func runBenchSuite(dir string, budget time.Duration) (string, error) {
	ctx := context.Background()
	wkv, ok := gen.DatasetByName("WKV")
	if !ok {
		return "", fmt.Errorf("reference dataset WKV missing from the registry")
	}
	g := wkv.Generate(0.2) // the mid-size reference workload (n=1400, m~20k)
	plaw := gen.PowerLaw(5000, 30000, 2.0, 0.05, 9)

	// The same WKV workload out of a memory-mapped TDBCSR1 file, so every
	// report carries a memory-vs-mapped row pair for the solver hot path.
	tmp, err := os.MkdirTemp("", "tdbbench-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	mappedPath := filepath.Join(tmp, "wkv.tdbcsr")
	if err := tdb.SaveMapped(mappedPath, g); err != nil {
		return "", err
	}
	mg, err := tdb.OpenMapped(mappedPath)
	if err != nil {
		return "", err
	}
	defer mg.Close()

	// The cover rows pin the sequential loop so their numbers stay
	// comparable with bench/BASELINE.json whatever the planner would pick.
	seq := tdb.WithStrategy(tdb.StrategySequential)
	eng := tdb.NewEngine(g)
	mappedEng := tdb.NewStorageEngine(mg)
	filtered := cycle.NewBlockDetector(plaw, 5, cycle.DefaultMinLen, nil)
	filtered.Filter = true
	plawEdges := plaw.Edges()
	plawUpdates := make([]tdb.Update, len(plawEdges))
	for i, e := range plawEdges {
		plawUpdates[i] = tdb.InsertOp(e.U, e.V)
	}

	suite := []struct {
		name string
		fn   func()
	}{
		{"CoverOneShot/TDB++", func() {
			if _, err := tdb.Solve(ctx, g, 5, seq); err != nil {
				panic(err)
			}
		}},
		{"CoverRepeated/Engine", func() {
			if _, err := eng.Solve(ctx, 5, seq); err != nil {
				panic(err)
			}
		}},
		{"CoverRepeated/Engine/mapped", func() {
			if _, err := mappedEng.Solve(ctx, 5, seq); err != nil {
				panic(err)
			}
		}},
		{"BlockDetectorFiltered/powerlaw", func() {
			for v := 0; v < plaw.NumVertices(); v++ {
				filtered.HasCycleThrough(tdb.VID(v))
			}
		}},
		{"HasHopConstrainedCycle/WKV", func() {
			tdb.HasHopConstrainedCycle(g, 5)
		}},
		{"HasHopConstrainedCycle/WKV/mapped", func() {
			tdb.HasHopConstrainedCycle(mg, 5)
		}},
		{"MaintainerInsert/powerlaw", func() {
			m := tdb.NewMaintainer(plaw.NumVertices(), 5, 3)
			for _, e := range plawEdges {
				m.InsertEdge(e.U, e.V)
			}
		}},
		{"MaintainerInsertBatch/powerlaw", func() {
			m := tdb.NewMaintainer(plaw.NumVertices(), 5, 3)
			for lo := 0; lo < len(plawUpdates); lo += 256 {
				m.ApplyBatch(plawUpdates[lo:min(lo+256, len(plawUpdates))])
			}
		}},
		{"MaintainerChurn/powerlaw", func() {
			m := tdb.NewMaintainer(plaw.NumVertices(), 5, 3)
			for i, e := range plawEdges {
				m.InsertEdge(e.U, e.V)
				if i%3 == 2 && i >= 64 {
					d := plawEdges[i-64]
					m.DeleteEdge(d.U, d.V)
				}
				if i%4096 == 4095 {
					m.Reminimize()
				}
			}
			m.Reminimize()
		}},
	}

	rep := benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: make(map[string]benchEntry, len(suite)),
	}
	for _, b := range suite {
		rep.Benchmarks[b.name] = measure(budget, b.fn)
		e := rep.Benchmarks[b.name]
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %10.1f allocs/op (%d iters)\n",
			b.name, e.NsPerOp, e.AllocsPerOp, e.Iterations)
	}

	path := filepath.Join(dir, "BENCH_"+time.Now().UTC().Format("20060102T150405Z")+".json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
