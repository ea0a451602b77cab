package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tdb/internal/exp"
)

// TestBenchMode runs the micro-benchmark suite with a tiny time budget and
// validates the BENCH_*.json report it writes.
func TestBenchMode(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-bench", "-bench-out", dir, "-bench-time", "1ms"}); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected exactly one BENCH_*.json, got %v (err %v)", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, name := range []string{"CoverRepeated/Engine", "HasHopConstrainedCycle/WKV"} {
		e, ok := rep.Benchmarks[name]
		if !ok {
			t.Fatalf("report is missing benchmark %q", name)
		}
		if e.NsPerOp <= 0 || e.Iterations <= 0 {
			t.Fatalf("benchmark %q has empty measurement: %+v", name, e)
		}
	}
}

// writeBenchReport writes a synthetic report for the -compare tests.
func writeBenchReport(t *testing.T, dir, name string, ns map[string]float64) string {
	t.Helper()
	rep := benchReport{Benchmarks: make(map[string]benchEntry, len(ns))}
	for bench, v := range ns {
		rep.Benchmarks[bench] = benchEntry{NsPerOp: v, Iterations: 10}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareMode(t *testing.T) {
	dir := t.TempDir()
	base := writeBenchReport(t, dir, "base.json", map[string]float64{
		"a": 1000, "b": 2000, "gone": 10,
	})
	// Within threshold: +5% on a, improvement on b, one added, one removed.
	ok := writeBenchReport(t, dir, "ok.json", map[string]float64{
		"a": 1050, "b": 1500, "new": 7,
	})
	if err := run([]string{"-compare", base, ok}); err != nil {
		t.Fatalf("within-threshold compare failed: %v", err)
	}
	// a regresses 50%: default threshold must fail, a loose one must pass.
	bad := writeBenchReport(t, dir, "bad.json", map[string]float64{
		"a": 1500, "b": 2000,
	})
	err := run([]string{"-compare", base, bad})
	if err == nil || !strings.Contains(err.Error(), "a (+50.0%)") {
		t.Fatalf("regression not gated: %v", err)
	}
	if err := run([]string{"-compare", "-threshold", "0.6", base, bad}); err != nil {
		t.Fatalf("loose threshold still failed: %v", err)
	}
}

func TestCompareErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := writeBenchReport(t, dir, "good.json", map[string]float64{"a": 1})
	for i, args := range [][]string{
		{"-compare", good},                // missing second path
		{"-compare", good, "/nope"},       // unreadable
		{"-compare", empty, good},         // no benchmarks
		{"-compare", good, good, "extra"}, // too many paths
	} {
		if err := run(args); err == nil {
			t.Fatalf("case %d (%v): expected error", i, args)
		}
	}
}

func TestListMode(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},                                // missing -exp
		{"-exp", "bogus", "-quick"},       // unknown experiment
		{"-exp", "table4", "-order", "x"}, // bad order
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("case %d (%v): expected error", i, args)
		}
	}
}

func TestQuickNohop(t *testing.T) {
	// The smallest real experiment end to end through the CLI layer.
	if err := run([]string{"-exp", "nohop", "-quick", "-order", "natural"}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConfig: -quick starts from QuickConfig, and only the flags the
// user set override it.
func TestQuickConfig(t *testing.T) {
	var got exp.Config
	runExperiment = func(_ string, cfg exp.Config) ([]*exp.Table, error) {
		got = cfg
		return nil, nil
	}
	t.Cleanup(func() { runExperiment = exp.Run })

	quick := exp.QuickConfig()
	if err := run([]string{"-exp", "nohop", "-quick"}); err != nil {
		t.Fatal(err)
	}
	if got.Scale != quick.Scale || got.SweepScale != quick.SweepScale ||
		got.LargeEdges != quick.LargeEdges || got.KMax != quick.KMax || got.Timeout != quick.Timeout {
		t.Fatalf("-quick ran scale=%v sweep-scale=%v large-edges=%d kmax=%d timeout=%v, want QuickConfig's %v %v %d %d %v",
			got.Scale, got.SweepScale, got.LargeEdges, got.KMax, got.Timeout,
			quick.Scale, quick.SweepScale, quick.LargeEdges, quick.KMax, quick.Timeout)
	}
	if err := run([]string{"-exp", "nohop", "-quick", "-kmax", "4", "-timeout", "2s"}); err != nil {
		t.Fatal(err)
	}
	if got.KMax != 4 || got.Timeout != 2*time.Second || got.Scale != quick.Scale {
		t.Fatalf("-quick -kmax 4 -timeout 2s ran kmax=%d timeout=%v scale=%v, want 4 2s %v",
			got.KMax, got.Timeout, got.Scale, quick.Scale)
	}
}
