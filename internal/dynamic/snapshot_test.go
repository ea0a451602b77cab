package dynamic

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"tdb/internal/digraph"
	"tdb/internal/verify"
)

func randomMaintainer(t *testing.T, rng *rand.Rand, n, batches int) *Maintainer {
	t.Helper()
	m := New(n, 6, 3)
	for b := 0; b < batches; b++ {
		ups := make([]Update, 0, 8)
		for i := 0; i < 8; i++ {
			u := digraph.VID(rng.Intn(n))
			v := digraph.VID(rng.Intn(n))
			if rng.Intn(5) == 0 {
				ups = append(ups, DeleteOp(u, v))
			} else {
				ups = append(ups, InsertOp(u, v))
			}
		}
		if _, err := m.ApplyBatchChecked(ups); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestSnapshotRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomMaintainer(t, rng, 64, 40)

	var buf bytes.Buffer
	if err := m.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadState(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != m.K() || got.MinLen() != m.MinLen() || got.NumVertices() != m.NumVertices() {
		t.Fatalf("parameters: got (%d,%d,%d), want (%d,%d,%d)",
			got.K(), got.MinLen(), got.NumVertices(), m.K(), m.MinLen(), m.NumVertices())
	}
	if got.Fingerprint() != m.Fingerprint() {
		t.Fatalf("fingerprint mismatch after roundtrip: %x vs %x", got.Fingerprint(), m.Fingerprint())
	}
	if ok, bad := verify.IsValid(got.Snapshot(), got.K(), got.MinLen(), got.Cover()); !ok {
		t.Fatalf("restored cover is not valid for the restored graph (witness %v)", bad)
	}
	// The restored maintainer must evolve identically: apply the same batch
	// to both and re-compare.
	ups := []Update{InsertOp(1, 2), InsertOp(2, 3), InsertOp(3, 1), DeleteOp(0, 1)}
	if _, err := m.ApplyBatchChecked(ups); err != nil {
		t.Fatal(err)
	}
	if _, err := got.ApplyBatchChecked(ups); err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != m.Fingerprint() {
		t.Fatal("fingerprints diverge after identical post-restore batch")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	m := randomMaintainer(t, rand.New(rand.NewSource(11)), 32, 10)
	var buf bytes.Buffer
	if err := m.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()

	cases := []struct {
		name string
		mod  func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0xab) }},
		{"k below minLen", func(b []byte) []byte { b[8] = 1; b[9] = 0; b[10] = 0; b[11] = 0; return b }},
		{"minLen below 2", func(b []byte) []byte { b[12] = 1; b[13] = 0; b[14] = 0; b[15] = 0; return b }},
		{"edge out of range", func(b []byte) []byte {
			// First edge endpoint lives right after magic+k+minLen+n+edges.
			off := 8 + 4 + 4 + 8 + 8
			for i := 0; i < 4; i++ {
				b[off+i] = 0xff
			}
			return b
		}},
		// The reader fills the CSR straight from the edge order, so any
		// order WriteState cannot produce must be refused.
		{"edges out of order", func(b []byte) []byte {
			off := 8 + 4 + 4 + 8 + 8
			var first [8]byte
			copy(first[:], b[off:off+8])
			copy(b[off:off+8], b[off+8:off+16])
			copy(b[off+8:off+16], first[:])
			return b
		}},
		{"duplicate edge", func(b []byte) []byte {
			off := 8 + 4 + 4 + 8 + 8
			copy(b[off+8:off+16], b[off:off+8])
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mod(append([]byte(nil), base...))
			if _, err := ReadState(bytes.NewReader(b)); err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
		})
	}
}

func TestSnapshotEmptyMaintainer(t *testing.T) {
	m := New(10, 4, 2)
	var buf bytes.Buffer
	if err := m.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadState(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 10 || got.NumEdges() != 0 || got.CoverSize() != 0 {
		t.Fatalf("empty roundtrip: n=%d m=%d cover=%d", got.NumVertices(), got.NumEdges(), got.CoverSize())
	}
}

func TestStateFingerprintSensitivity(t *testing.T) {
	m1 := New(8, 4, 2)
	m2 := New(8, 4, 2)
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Fatal("identical empty states hash differently")
	}
	if _, err := m1.ApplyBatchChecked([]Update{InsertOp(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if m1.Fingerprint() == m2.Fingerprint() {
		t.Fatal("edge insert did not change fingerprint")
	}
	m3 := New(8, 5, 2)
	if m3.Fingerprint() == m2.Fingerprint() {
		t.Fatal("k change did not change fingerprint")
	}
}

// goldenStateMaintainer is a fixed maintainer built without a random
// generator: an arithmetic base graph with self-loops, a seeded cover, and
// two batches that delete base edges, add edges past the base and grow
// the vertex set. Its edge section (~12k edges) spans
// more than one 64 KiB encoder chunk.
func goldenStateMaintainer(t *testing.T) *Maintainer {
	t.Helper()
	const n = 3000
	b := digraph.NewBuilder(n)
	b.KeepSelfLoops = true
	for u := 0; u < n; u++ {
		b.AddEdge(digraph.VID(u), digraph.VID((u*7+3)%n))
		b.AddEdge(digraph.VID(u), digraph.VID((u*u+1)%n))
		b.AddEdge(digraph.VID(u), digraph.VID((u+1)%n))
		b.AddEdge(digraph.VID(u), digraph.VID((u*5+17)%n))
		if u%97 == 0 {
			b.AddEdge(digraph.VID(u), digraph.VID(u))
		}
	}
	var cover []digraph.VID
	for v := 0; v < n; v += 5 {
		cover = append(cover, digraph.VID(v))
	}
	m, err := FromGraph(b.Build(), 5, 3, cover)
	if err != nil {
		t.Fatal(err)
	}
	var ups []Update
	for u := 0; u < n; u += 3 {
		ups = append(ups, DeleteOp(digraph.VID(u), digraph.VID((u+1)%n)))
		ups = append(ups, InsertOp(digraph.VID(u), digraph.VID((u*13+11)%n)))
	}
	m.ApplyBatch(ups)
	m.Grow(n + 40)
	ups = ups[:0]
	for u := 0; u < 40; u++ {
		ups = append(ups, InsertOp(digraph.VID(n+u), digraph.VID(u*31)), InsertOp(digraph.VID(u*29), digraph.VID(n+u)))
	}
	m.ApplyBatch(ups)
	return m
}

// TestWriteStateGolden pins WriteState's bytes on a fixed maintainer: the
// encoder may change how it buffers, never what it writes. StateSize must
// predict the length before the write compacts.
func TestWriteStateGolden(t *testing.T) {
	m := goldenStateMaintainer(t)
	size := m.StateSize()
	var buf bytes.Buffer
	if err := m.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	const wantLen, wantSum = 99288, "e564aa1d5b8bdaaadec06a0de545249dc20024528b44f902783c167ccdb76b7f"
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); buf.Len() != wantLen || got != wantSum {
		t.Fatalf("WriteState wrote %d bytes, sha256 %s; want %d bytes, sha256 %s", buf.Len(), got, wantLen, wantSum)
	}
	if size != wantLen {
		t.Fatalf("StateSize = %d, want %d", size, wantLen)
	}
}
