package digraph

import (
	"bytes"
	"compress/gzip"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment
% konect-style comment

0 1
1 2   extra columns ignored
2	0
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(2, 0) {
		t.Fatal("tab-separated edge missing")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",                      // missing target
		"a b\n",                    // non-numeric
		"0 99999999999999999999\n", // overflow
		"4294967296 0\n",           // beyond uint32, not truncated to 0
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	g := randomGraph(rng, 50, 300)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Fatal("text round trip changed edges")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	g := randomGraph(rng, 80, 500)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() {
		t.Fatalf("n mismatch: %d vs %d", g2.NumVertices(), g.NumVertices())
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Fatal("binary round trip changed edges")
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOTMAGIC stuff"))); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{3, len(binaryMagic) + 4, len(raw) - 3} {
		if _, err := ReadBinary(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d: expected error", cut)
		}
	}
}

func TestLoadSaveFile(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(15, 16))
	g := randomGraph(rng, 40, 200)

	for _, name := range []string{"g.txt", "g.bin"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		g2, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
			t.Fatalf("%s: round trip changed edges", name)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.txt")); !os.IsNotExist(err) {
		t.Fatalf("want not-exist error, got %v", err)
	}
}

// SNAP distributes edge lists gzipped; LoadFile must decompress ".gz"
// transparently for both text and binary payloads.
func TestLoadFileGzip(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	g := randomGraph(rng, 40, 200)

	for _, stem := range []string{"g.txt", "g.bin"} {
		path := filepath.Join(t.TempDir(), stem+".gz")
		var raw bytes.Buffer
		var err error
		if strings.HasSuffix(stem, ".bin") {
			err = WriteBinary(&raw, g)
		} else {
			err = WriteEdgeList(&raw, g)
		}
		if err != nil {
			t.Fatal(err)
		}
		var zbuf bytes.Buffer
		zw := gzip.NewWriter(&zbuf)
		if _, err := zw.Write(raw.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, zbuf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		g2, err := LoadFile(path)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", path, err)
		}
		if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
			t.Fatalf("%s: gzip round trip changed edges", stem)
		}
	}

	// A .gz path whose payload is not gzip must error cleanly.
	bad := filepath.Join(t.TempDir(), "bad.txt.gz")
	if err := os.WriteFile(bad, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("LoadFile accepted a non-gzip .gz file")
	}
}
