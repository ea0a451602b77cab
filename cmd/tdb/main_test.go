package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tdb/internal/digraph"
)

func writeTriangle(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tri.txt")
	g := digraph.FromEdges(3, []digraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	if err := digraph.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunComputesCover(t *testing.T) {
	path := writeTriangle(t)
	var out bytes.Buffer
	err := run([]string{"-graph", path, "-k", "5", "-verify"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Fields(out.String())
	if len(got) != 1 {
		t.Fatalf("cover output %q, want one vertex", out.String())
	}
}

func TestRunWritesOutFile(t *testing.T) {
	path := writeTriangle(t)
	outPath := filepath.Join(t.TempDir(), "cover.txt")
	if err := run([]string{"-graph", path, "-out", outPath, "-algo", "BUR+"}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Fields(string(data))) != 1 {
		t.Fatalf("cover file %q, want one vertex", data)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTriangle(t)
	cases := [][]string{
		{},                                       // missing -graph
		{"-graph", "/does/not/exist"},            // bad file
		{"-graph", path, "-algo", "NOPE"},        // bad algorithm
		{"-graph", path, "-order", "sideways"},   // bad order
		{"-graph", path, "-k", "1"},              // k < minlen
		{"-graph", path, "-prepass", "2"},        // removed flag
		{"-graph", path, "-strategy", "prepass"}, // removed strategy
	}
	for i, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("case %d (%v): expected error", i, args)
		}
	}
}

func TestRunAllOrders(t *testing.T) {
	path := writeTriangle(t)
	for _, ord := range []string{"natural", "degree-asc", "degree-desc", "random"} {
		if err := run([]string{"-graph", path, "-order", ord}, &bytes.Buffer{}); err != nil {
			t.Fatalf("order %s: %v", ord, err)
		}
	}
}

func TestRunTimeout(t *testing.T) {
	// Build a graph big enough that a 1ns timeout triggers.
	dir := t.TempDir()
	path := filepath.Join(dir, "big.txt")
	b := digraph.NewBuilder(2000)
	for v := 0; v < 2000; v++ {
		b.AddEdge(digraph.VID(v), digraph.VID((v+1)%2000))
		b.AddEdge(digraph.VID(v), digraph.VID((v+7)%2000))
		b.AddEdge(digraph.VID((v+3)%2000), digraph.VID(v))
	}
	if err := digraph.SaveFile(path, b.Build()); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-graph", path, "-timeout", "1ns"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("want timeout error, got %v", err)
	}
	// The sentinel is what main maps to exit code 124; it must survive the
	// wrapping, and must NOT look like an interrupt (130).
	if !errors.Is(err, errTimedOut) {
		t.Fatalf("timeout error %v does not wrap errTimedOut", err)
	}
	if errors.Is(err, errCanceled) {
		t.Fatalf("timeout error %v wrongly wraps errCanceled", err)
	}
}

func TestRunTimeoutDegrade(t *testing.T) {
	// Same expired deadline, but with -degrade the run must succeed with a
	// valid (conservative) cover instead of failing.
	path := writeTriangle(t)
	var out bytes.Buffer
	err := run([]string{"-graph", path, "-timeout", "1ns", "-degrade", "-verify"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Fields(out.String())) == 0 {
		t.Fatal("degraded run wrote no cover")
	}
}
