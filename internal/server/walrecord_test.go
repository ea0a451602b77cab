package server

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"net/http"
	"slices"
	"strings"
	"testing"

	"tdb/internal/dynamic"
	"tdb/internal/fault"
	"tdb/internal/wal"
)

// legacyWALRecord encodes a batch the way records were written before they
// carried a cover trailer.
func legacyWALRecord(growTo int, ups []dynamic.Update) []byte {
	rec := encodeWALRecord(walBatch{growTo: growTo, updates: ups})
	return rec[:len(rec)-4]
}

func randomWALBatch(rng *rand.Rand) walBatch {
	b := walBatch{growTo: 1 + rng.IntN(1<<20)}
	for i := rng.IntN(20); i > 0; i-- {
		op := dynamic.OpInsert
		if rng.IntN(3) == 0 {
			op = dynamic.OpDelete
		}
		b.updates = append(b.updates, dynamic.Update{Op: op, U: VID(rng.Uint32()), V: VID(rng.Uint32())})
	}
	for i := rng.IntN(5); i > 0; i-- {
		b.added = append(b.added, VID(rng.IntN(b.growTo)))
	}
	return b
}

func sameWALBatch(a, b walBatch) bool {
	return a.growTo == b.growTo && slices.Equal(a.updates, b.updates) && slices.Equal(a.added, b.added)
}

// TestWALRecordRoundTrip: decode(encode(b)) is b, and a record cut right
// after its updates decodes as a legacy record of the same updates.
func TestWALRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	for i := 0; i < 500; i++ {
		b := randomWALBatch(rng)
		got, legacy, err := decodeWALRecord(encodeWALRecord(b))
		if err != nil || legacy || !sameWALBatch(got, b) {
			t.Fatalf("round trip of %+v: got %+v legacy=%v err=%v", b, got, legacy, err)
		}
		got, legacy, err = decodeWALRecord(legacyWALRecord(b.growTo, b.updates))
		b.added = nil
		if err != nil || !legacy || !sameWALBatch(got, b) {
			t.Fatalf("legacy decode of %+v: got %+v legacy=%v err=%v", b, got, legacy, err)
		}
	}
}

// FuzzWALRecord throws arbitrary bytes at the record decoder: it must never
// panic, and every payload it accepts must be exactly the encoding of what
// it decoded (no slack bytes, no second reading of the same record).
func FuzzWALRecord(f *testing.F) {
	rng := rand.New(rand.NewPCG(24, 2))
	for i := 0; i < 4; i++ {
		b := randomWALBatch(rng)
		f.Add(encodeWALRecord(b))
		f.Add(legacyWALRecord(b.growTo, b.updates))
	}
	f.Add([]byte{})
	f.Add(make([]byte, walRecordHeader+2))
	f.Fuzz(func(t *testing.T, payload []byte) {
		b, legacy, err := decodeWALRecord(payload)
		if err != nil {
			return
		}
		enc := encodeWALRecord(b)
		if legacy {
			enc = enc[:len(enc)-4]
		}
		if !bytes.Equal(enc, payload) {
			t.Fatalf("accepted %x, which re-encodes as %x", payload, enc)
		}
	})
}

// durableConfig is a data-dir server that never checkpoints on its own, so
// its records stay in the log for the next start to replay.
func durableConfig(dir string) Config {
	return Config{K: soakK, MinLen: soakMinLen, NumVertices: soakBaseN,
		DataDir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: 1 << 30}
}

var triangle = []dynamic.Update{dynamic.InsertOp(0, 1), dynamic.InsertOp(1, 2), dynamic.InsertOp(2, 0)}

// TestRecoverLegacyRecord: a record written before records carried their
// cover delta still replays (through ApplyBatchChecked), and the
// post-replay checkpoint retires it. The recovery phases are reported.
func TestRecoverLegacyRecord(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shutdownServer(t, s)
	ups := append(slices.Clone(triangle), dynamic.InsertOp(3, 4), dynamic.DeleteOp(1, 2), dynamic.InsertOp(1, 2))
	appendFile(t, newestSegment(t, dir), soakRecord(1, legacyWALRecord(soakBaseN, ups)))

	ref := dynamic.New(soakBaseN, soakK, soakMinLen)
	if _, err := ref.ApplyBatchChecked(ups); err != nil {
		t.Fatal(err)
	}
	s, err = New(cfg)
	if err != nil {
		t.Fatalf("recovering a legacy record: %v", err)
	}
	var st StatsResponse
	if code := get(t, s, "/v1/stats", &st); code != 200 || st.WALRecovered != 1 || st.WALLastSeq != 1 {
		t.Fatalf("stats code=%d recovered=%d last_seq=%d, want 1 record up to seq 1",
			code, st.WALRecovered, st.WALLastSeq)
	}
	if st.WALRecoverLoadMS <= 0 || st.WALRecoverReplayMS <= 0 || st.WALRecoverCheckpointMS <= 0 {
		t.Fatalf("recovery phases not reported: load %v replay %v checkpoint %v ms",
			st.WALRecoverLoadMS, st.WALRecoverReplayMS, st.WALRecoverCheckpointMS)
	}
	if r := s.Recovery(); r.Records != 1 || r.Replay <= 0 {
		t.Fatalf("Recovery() = %+v", r)
	}
	want := ref.Fingerprint()
	if got := epochFingerprint(s); got != want {
		t.Fatalf("recovered fingerprint %x, want %x", got, want)
	}
	shutdownServer(t, s)

	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)
	if r := s.Recovery(); r.Records != 0 {
		t.Fatalf("second start replayed %d records; the legacy record should be retired", r.Records)
	}
	if got := epochFingerprint(s); got != want {
		t.Fatalf("fingerprint after retiring the legacy record %x, want %x", got, want)
	}
}

// TestRecoverMixedRecords: a legacy record between trailer records splits
// the tail into runs, each replayed in one call, and recovery still
// rebuilds what applying every batch in order gives. A trailer that names
// a vertex an earlier record of its run covered is refused as that
// record, not as the run's first.
func TestRecoverMixedRecords(t *testing.T) {
	legacyUps := []dynamic.Update{dynamic.InsertOp(3, 4), dynamic.DeleteOp(1, 2), dynamic.InsertOp(4, 3)}
	cycle567 := []dynamic.Update{dynamic.InsertOp(5, 6), dynamic.InsertOp(6, 7), dynamic.InsertOp(7, 5), dynamic.DeleteOp(4, 3)}
	tail := []dynamic.Update{dynamic.InsertOp(2, 5), dynamic.InsertOp(1, 2)}
	for _, corrupt := range []bool{false, true} {
		dir := t.TempDir()
		cfg := durableConfig(dir)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if code := post(t, s, "/v1/update", updateBody(0, triangle), nil); code != 200 {
			t.Fatalf("triangle write: code %d", code)
		}
		shutdownServer(t, s)

		ref := dynamic.New(soakBaseN, soakK, soakMinLen)
		for _, ups := range [][]dynamic.Update{triangle, legacyUps} {
			if _, err := ref.ApplyBatchChecked(ups); err != nil {
				t.Fatal(err)
			}
		}
		cycleAdded := ref.ApplyBatch(cycle567)
		tailAdded := ref.ApplyBatch(tail)
		if len(cycleAdded) != 1 {
			t.Fatalf("cycle567 added %v, want one vertex", cycleAdded)
		}
		if corrupt {
			tailAdded = append(tailAdded, cycleAdded[0])
		}
		seg := newestSegment(t, dir)
		appendFile(t, seg, soakRecord(2, legacyWALRecord(soakBaseN, legacyUps)))
		appendFile(t, seg, soakRecord(3, encodeWALRecord(walBatch{growTo: soakBaseN, updates: cycle567, added: cycleAdded})))
		appendFile(t, seg, soakRecord(4, encodeWALRecord(walBatch{growTo: soakBaseN, updates: tail, added: tailAdded})))

		s, err = New(cfg)
		if corrupt {
			if err == nil {
				shutdownServer(t, s)
				t.Fatal("recovery accepted a trailer naming a vertex an earlier record covered")
			}
			if !strings.Contains(err.Error(), "WAL record 4 does not apply") {
				t.Fatalf("error %q, want record 4 refused as not applying", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("recovering mixed records: %v", err)
		}
		if r := s.Recovery(); r.Records != 4 {
			t.Fatalf("recovered %d records, want 4", r.Records)
		}
		if got, want := epochFingerprint(s), ref.Fingerprint(); got != want {
			t.Fatalf("recovered fingerprint %x, want %x", got, want)
		}
		shutdownServer(t, s)
	}
}

// TestRecoverRefusesCorruptTrailer: a CRC-valid record whose cover trailer
// disagrees with its count, names a vertex beyond the record's vertex
// count, names a vertex twice, or names one the state already covers is
// refused as not applying — never replayed into a double-counted cover,
// never a panic.
func TestRecoverRefusesCorruptTrailer(t *testing.T) {
	withCount := func(rec []byte, count uint32) []byte {
		binary.LittleEndian.PutUint32(rec[walRecordHeader+9*len(triangle):], count)
		return rec
	}
	for _, tc := range []struct {
		name   string
		record func(covered VID) []byte
	}{
		{"count too high", func(VID) []byte {
			return withCount(encodeWALRecord(walBatch{growTo: soakBaseN, updates: triangle, added: []VID{3}}), 2)
		}},
		{"count too low", func(VID) []byte {
			return withCount(encodeWALRecord(walBatch{growTo: soakBaseN, updates: triangle, added: []VID{3, 4}}), 1)
		}},
		{"torn count", func(VID) []byte {
			return append(legacyWALRecord(soakBaseN, triangle), 0, 0)
		}},
		{"vertex beyond the record", func(VID) []byte {
			// Vertex 8 exists in the recovered graph, but not in the
			// 8-vertex graph the record says it was written against.
			return encodeWALRecord(walBatch{growTo: 8, updates: triangle, added: []VID{8}})
		}},
		{"vertex twice", func(VID) []byte {
			return encodeWALRecord(walBatch{growTo: soakBaseN, updates: triangle, added: []VID{5, 5}})
		}},
		{"vertex already covered", func(c VID) []byte {
			return encodeWALRecord(walBatch{growTo: soakBaseN, updates: triangle, added: []VID{c}})
		}},
	} {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var resp UpdateResponse
			if code := post(t, s, "/v1/update", updateBody(0, triangle), &resp); code != 200 || len(resp.CoverAdded) != 1 {
				t.Fatalf("triangle write: code=%d added=%v", code, resp.CoverAdded)
			}
			shutdownServer(t, s)
			appendFile(t, newestSegment(t, dir), soakRecord(2, tc.record(resp.CoverAdded[0])))
			s, err = New(cfg)
			if err == nil {
				shutdownServer(t, s)
				t.Fatal("recovery accepted a corrupt cover trailer")
			}
			if !strings.Contains(err.Error(), "WAL record 2 does not apply") {
				t.Fatalf("error %q, want record 2 refused as not applying", err)
			}
		})
	}
}

// TestWriterPanicRestoresPerBatchCover: after a contained writer panic the
// maintainer must be exactly what applying the acknowledged batches one by
// one gave. Concatenating them into one batch requalifies differently: the
// triangle's cover vertex is dropped once the deletion of 2->0 rides in the
// same batch, so the live server would lose a vertex it acknowledged.
func TestWriterPanicRestoresPerBatchCover(t *testing.T) {
	const k, minLen = 5, 3
	s := newTestServer(t, Config{K: k, MinLen: minLen, NumVertices: 4, PublishEvery: 1 << 30})
	batches := [][]dynamic.Update{triangle, {dynamic.DeleteOp(2, 0)}}
	ref := dynamic.New(4, k, minLen)
	for _, ups := range batches {
		if code := post(t, s, "/v1/update", updateBody(0, ups), nil); code != 200 {
			t.Fatalf("write %v: %d", ups, code)
		}
		if _, err := ref.ApplyBatchChecked(ups); err != nil {
			t.Fatal(err)
		}
	}
	disarm := armOnce(fault.SiteDynamicApplyBatch)
	code := post(t, s, "/v1/update", updateBody(0, []dynamic.Update{dynamic.InsertOp(0, 3)}), nil)
	disarm()
	if code != http.StatusInternalServerError || s.writerRestores.Load() != 1 {
		t.Fatalf("poisoned batch: code %d, restores %d; want 500 and one restore", code, s.writerRestores.Load())
	}
	if code := post(t, s, "/v1/update", `{"publish":true,"wait":true}`, nil); code != 200 {
		t.Fatalf("publish after restore: %d", code)
	}
	e := s.ring.Acquire()
	got, cover := dynamic.StateFingerprint(e.Graph(), e.Cover(), k, minLen), e.Cover()
	e.Release()
	if want := ref.Fingerprint(); got != want {
		t.Fatalf("restored state %x (cover %v), want %x (cover %v)", got, cover, want, ref.Cover())
	}
}
