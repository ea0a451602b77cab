package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"tdb"
	"tdb/internal/dynamic"
)

var tdbserveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tdbserveBin = filepath.Join(dir, "tdbserve")
	if out, err := exec.Command("go", "build", "-o", tdbserveBin, "tdb/cmd/tdbserve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building tdbserve: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// operatorMetrics are the per-workload metrics each untraced run prints on
// its "metric" lines, by name and unit.
var operatorMetrics = map[string][]metricDef{
	"solve-dense":  {{"setup_s", "s"}, {"solve_ms", "ms"}, {"solve_p90_ms", "ms"}, {"cover_size", "vertices"}, {"rss_mb", "MiB"}},
	"solve-sparse": {{"setup_s", "s"}, {"solve_ms", "ms"}, {"solve_p90_ms", "ms"}, {"cover_size", "vertices"}, {"rss_mb", "MiB"}},
	"serve-read": {{"setup_s", "s"}, {"query_ms", "ms"}, {"query_p99_ms", "ms"}, {"queries_per_s", "req/s"},
		{"cover_size", "vertices"}, {"rss_mb", "MiB"}},
	"serve-write": {{"setup_s", "s"}, {"write_ms", "ms"}, {"write_p99_ms", "ms"}, {"query_ms", "ms"}, {"query_p99_ms", "ms"},
		{"recover_s", "s"}, {"disk_bytes_per_update", "B"}, {"cover_size", "vertices"}, {"rss_mb", "MiB"}},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runTiny runs one workload at a tiny scale for one second.
func runTiny(t *testing.T, workload string, trace int) (string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "1", "-trace", fmt.Sprint(trace),
		"-scale", "0.01", "-out", t.TempDir(), "-tdbserve", tdbserveBin}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%d: exit %d\n%s\n%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, stdout.String())
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return stdout.String(), res
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, res := runTiny(t, w.name, 0)
			assertMetrics(t, res, endToEnd)
			for _, d := range operatorMetrics[w.name] {
				prefix := fmt.Sprintf("metric %s %s ", w.name, d.name)
				found := false
				for _, line := range strings.Split(out, "\n") {
					if rest, ok := strings.CutPrefix(line, prefix); ok {
						f := strings.Fields(rest)
						found = len(f) >= 2 && f[1] == d.unit
					}
				}
				if !found {
					t.Errorf("no %q line with unit %s in\n%s", prefix, d.unit, out)
				}
			}
			for _, want := range []string{"env {", "failures " + w.name + " attempted="} {
				if !strings.Contains(out, want) {
					t.Errorf("output lacks %q", want)
				}
			}

			_, traced := runTiny(t, w.name, 1)
			assertMetrics(t, traced, perLayer)
		})
	}
}

func assertMetrics(t *testing.T, res result, want []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
		}
	}
}

func TestChecksCatchCorruptAnswers(t *testing.T) {
	g, err := makeGraph("SAD", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tdb.Solve(context.Background(), g, hopK)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("cover missing a vertex", func(t *testing.T) {
		if err := checkCover(g, res.Cover, true); err != nil {
			t.Fatalf("true cover rejected: %v", err)
		}
		dropped := slices.Delete(slices.Clone(res.Cover), len(res.Cover)/2, len(res.Cover)/2+1)
		if err := checkCover(g, dropped, false); err == nil {
			t.Fatal("cover with a vertex dropped passed")
		}
	})

	t.Run("cycle with a fake edge", func(t *testing.T) {
		var src tdb.VID
		var cyc []tdb.VID
		for v := 0; v < g.NumVertices() && cyc == nil; v++ {
			src, cyc = tdb.VID(v), tdb.FindCycle(g, hopK, tdb.VID(v))
		}
		if cyc == nil {
			t.Fatal("no cycle in the test graph")
		}
		if err := checkCycle(g.HasEdge, src, cyc); err != nil {
			t.Fatalf("true cycle rejected: %v", err)
		}
		fake := slices.Clone(cyc)
		for w := 0; w < g.NumVertices(); w++ {
			if !slices.Contains(cyc, tdb.VID(w)) && !g.HasEdge(cyc[0], tdb.VID(w)) {
				fake[1] = tdb.VID(w)
				break
			}
		}
		err := checkCycle(g.HasEdge, src, fake)
		if err == nil || !strings.Contains(err.Error(), "absent edge") {
			t.Fatalf("cycle %v with a fake edge: got %v", fake, err)
		}
	})

	t.Run("recovered state missing a batch", func(t *testing.T) {
		stream := writeStream(g, 4, 1)
		full, err := dynamic.FromGraph(g, hopK, minLen, res.Cover)
		if err != nil {
			t.Fatal(err)
		}
		short, err := dynamic.FromGraph(g, hopK, minLen, res.Cover)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range stream {
			full.ApplyBatch(b)
			if i < len(stream)-1 {
				short.ApplyBatch(b)
			}
		}
		// The benchmark's expected state (seed + stream, rebuilt without
		// the maintainer) must match the maintainer that applied it.
		want := dynamic.StateFingerprint(applyStream(g, stream, len(stream)), full.Cover(), hopK, minLen)
		if want != full.Fingerprint() {
			t.Fatal("seed + stream does not reproduce the maintainer's state")
		}
		if err := checkRecovered(full.Cover(), full.Cover(), want, full.Fingerprint()); err != nil {
			t.Fatalf("identical state rejected: %v", err)
		}
		if err := checkRecovered(full.Cover(), short.Cover(), want, short.Fingerprint()); err == nil {
			t.Fatal("state missing the last batch passed")
		}
	})
}

func TestWrongAnswerFailsTheRun(t *testing.T) {
	rep := newReport(environment{Workload: "solve-dense"})
	rep.attempted = 3
	rep.wrongAnswer(fmt.Errorf("cover differs"))
	var stdout, stderr bytes.Buffer
	if code := printReport(&stdout, &stderr, rep); code == 0 {
		t.Fatal("exit code 0 after a wrong answer")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 3 {
		t.Fatalf("got %+v", res)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(time.Now())
	tr.spans = []span{
		{Name: "bench.op", Parent: -1, Start: 0, End: 10},
		{Name: "core.a", Parent: 0, Start: 2, End: 5},
		{Name: "core.b", Parent: 0, Start: 4, End: 8},
	}
	st := tr.selfTimes()
	if got := st["bench.op"].Self; got != 4 {
		t.Errorf("root self time %v, want 4 (10 minus the union of [2,5] and [4,8])", got)
	}
	if got := st["core.a"].Self + st["core.b"].Self; got != 7 {
		t.Errorf("children self time %v, want 7", got)
	}
}

func TestGCTrace(t *testing.T) {
	log := []byte("loaded graph\n" +
		"gc 1 @0.010s 2%: 0.015+1.2+0.020 ms clock, 0.030+0.10/0.5/0+0.040 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P\n" +
		"gc 2 @0.020s 2%: 0.10+2.0+0.30 ms clock, 0.2+0/0/0+0.6 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P\n")
	cycles, pause := gcTrace(log)
	if cycles != 2 || pause < 0.4349 || pause > 0.4351 {
		t.Fatalf("got %d cycles, %v ms pause; want 2, 0.435", cycles, pause)
	}
}
