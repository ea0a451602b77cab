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
	if rng.IntN(2) == 0 {
		for i := 1 + rng.IntN(4); i > 0; i-- {
			b.removed = append(b.removed, VID(rng.IntN(b.growTo)))
		}
	}
	return b
}

func sameWALBatch(a, b walBatch) bool {
	return a.growTo == b.growTo && slices.Equal(a.updates, b.updates) &&
		slices.Equal(a.added, b.added) && slices.Equal(a.removed, b.removed)
}

// addOnlyWALRecord encodes a batch the way records were written before
// they logged removals: updates and the added vertices.
func addOnlyWALRecord(b walBatch) []byte {
	b.removed = nil
	return encodeWALRecord(b)
}

// TestWALRecordRoundTrip: decode(encode(b)) is b, removals included; a
// record cut right after its updates decodes as a legacy record of the
// same updates, and an add-only record as the batch without removals.
func TestWALRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	removals := 0
	for i := 0; i < 500; i++ {
		b := randomWALBatch(rng)
		removals += len(b.removed)
		got, legacy, err := decodeWALRecord(encodeWALRecord(b))
		if err != nil || legacy || !sameWALBatch(got, b) {
			t.Fatalf("round trip of %+v: got %+v legacy=%v err=%v", b, got, legacy, err)
		}
		b.removed = nil
		got, legacy, err = decodeWALRecord(addOnlyWALRecord(b))
		if err != nil || legacy || !sameWALBatch(got, b) {
			t.Fatalf("add-only decode of %+v: got %+v legacy=%v err=%v", b, got, legacy, err)
		}
		got, legacy, err = decodeWALRecord(legacyWALRecord(b.growTo, b.updates))
		b.added = nil
		if err != nil || !legacy || !sameWALBatch(got, b) {
			t.Fatalf("legacy decode of %+v: got %+v legacy=%v err=%v", b, got, legacy, err)
		}
	}
	if removals == 0 {
		t.Fatal("no batch carried removals")
	}
}

// TestWALRecordRefusesBadRemovals: a removal section must hold at least
// one vertex, every one in range, and end the record exactly.
func TestWALRecordRefusesBadRemovals(t *testing.T) {
	b := walBatch{growTo: 8, updates: triangle, added: []VID{1}}
	base := addOnlyWALRecord(b)
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"torn count", []byte{1, 0}},
		{"empty section", []byte{0, 0, 0, 0}},
		{"short section", []byte{2, 0, 0, 0, 3, 0, 0, 0}},
		{"trailing bytes", []byte{1, 0, 0, 0, 3, 0, 0, 0, 9}},
		{"vertex out of range", []byte{1, 0, 0, 0, 8, 0, 0, 0}},
	} {
		if _, _, err := decodeWALRecord(append(slices.Clone(base), tc.tail...)); err == nil {
			t.Fatalf("%s: decoded", tc.name)
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
	f.Add(encodeWALRecord(walBatch{growTo: 4, added: []VID{1}, removed: []VID{1, 2}}))
	f.Add(addOnlyWALRecord(walBatch{growTo: 4, updates: triangle, added: []VID{3}}))
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

// TestRecoverRemovals: publishing batches log the vertices their
// Reminimize removed, a publish that removes vertices logs a record even
// without updates, and recovery replays a tail holding removals and a
// vertex removed by one record and re-added by a later one into the state
// the server published, without searching.
func TestRecoverRemovals(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := dynamic.New(soakBaseN, soakK, soakMinLen)
	var removed [][]VID
	write := func(body string, ups []dynamic.Update) {
		t.Helper()
		var resp UpdateResponse
		if code := post(t, s, "/v1/update", body, &resp); code != 200 {
			t.Fatalf("write %s: %d", body, code)
		}
		ref.ApplyBatch(ups)
		want := ref.ReminimizePass().Removed
		if !slices.Equal(resp.CoverRemoved, want) {
			t.Fatalf("write %s removed %v, reference %v", body, resp.CoverRemoved, want)
		}
		removed = append(removed, want)
	}
	publishing := func(ups []dynamic.Update) string {
		return strings.Replace(updateBody(0, ups), `"wait":true`, `"publish":true,"wait":true`, 1)
	}
	write(publishing(triangle), triangle)
	covered := ref.Cover()
	unclose := []dynamic.Update{dynamic.DeleteOp(0, 1)}
	if code := post(t, s, "/v1/update", updateBody(0, unclose), nil); code != 200 {
		t.Fatalf("delete: %d", code)
	}
	ref.ApplyBatch(unclose)
	write(`{"publish":true,"wait":true}`, nil) // removes the triangle's vertex
	reclose := []dynamic.Update{dynamic.InsertOp(0, 1)}
	write(publishing(reclose), reclose) // covers the same vertex again
	if len(covered) != 1 || !slices.Equal(removed[1], covered) || !slices.Equal(ref.Cover(), covered) {
		t.Fatalf("covered %v, removals %v, final cover %v: want one vertex removed and re-added", covered, removed, ref.Cover())
	}
	want := epochFingerprint(s)
	if want != ref.Fingerprint() {
		t.Fatalf("served state %x, reference %x", want, ref.Fingerprint())
	}
	shutdownServer(t, s)

	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 4 {
		t.Fatalf("logged %d records, want 4", len(rec.Records))
	}
	b, _, err := decodeWALRecord(rec.Records[2].Payload)
	if err != nil || len(b.updates) != 0 || !slices.Equal(b.removed, covered) {
		t.Fatalf("publish-only record %+v (err %v), want no updates and removal %v", b, err, covered)
	}
	s, err = New(cfg)
	if err != nil {
		t.Fatalf("recovering removals: %v", err)
	}
	defer shutdownServer(t, s)
	if got := epochFingerprint(s); got != want {
		t.Fatalf("recovered fingerprint %x, want %x", got, want)
	}
	var st StatsResponse
	// Recovery adopts the cover without searching: its vertex awaits the
	// first publish's re-test.
	if code := get(t, s, "/v1/stats", &st); code != 200 || st.WitnessUnknown != 1 || st.ReminimizePasses != 0 {
		t.Fatalf("stats after recovery: code %d, %+v", code, st)
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
// same batch, so the live server would lose a vertex it acknowledged. The
// publish after the restore reminimizes that vertex away; re-closing the
// triangle covers a vertex again, and a second restore must rebuild that
// from the epoch without it plus the re-adding batch.
func TestWriterPanicRestoresPerBatchCover(t *testing.T) {
	const k, minLen = 5, 3
	s := newTestServer(t, Config{K: k, MinLen: minLen, NumVertices: 4, PublishEvery: 1 << 30})
	ref := dynamic.New(4, k, minLen)
	write := func(ups []dynamic.Update) {
		t.Helper()
		if code := post(t, s, "/v1/update", updateBody(0, ups), nil); code != 200 {
			t.Fatalf("write %v: %d", ups, code)
		}
		if _, err := ref.ApplyBatchChecked(ups); err != nil {
			t.Fatal(err)
		}
	}
	poison := func(restores int64) {
		t.Helper()
		disarm := armOnce(fault.SiteDynamicApplyBatch)
		code := post(t, s, "/v1/update", updateBody(0, []dynamic.Update{dynamic.InsertOp(0, 3)}), nil)
		disarm()
		if code != http.StatusInternalServerError || s.writerRestores.Load() != restores {
			t.Fatalf("poisoned batch: code %d, restores %d; want 500 and %d restores", code, s.writerRestores.Load(), restores)
		}
	}
	publish := func(wantRemoved []VID) {
		t.Helper()
		var resp UpdateResponse
		if code := post(t, s, "/v1/update", `{"publish":true,"wait":true}`, &resp); code != 200 {
			t.Fatalf("publish: %d", code)
		}
		if removed := ref.ReminimizePass().Removed; !slices.Equal(removed, wantRemoved) || !slices.Equal(resp.CoverRemoved, removed) {
			t.Fatalf("publish removed %v, reference %v, want %v", resp.CoverRemoved, removed, wantRemoved)
		}
		e := s.ring.Acquire()
		got, cover := dynamic.StateFingerprint(e.Graph(), e.Cover(), k, minLen), e.Cover()
		e.Release()
		if want := ref.Fingerprint(); got != want {
			t.Fatalf("restored state %x (cover %v), want %x (cover %v)", got, cover, want, ref.Cover())
		}
	}
	write(triangle)
	write([]dynamic.Update{dynamic.DeleteOp(2, 0)})
	covered := ref.Cover()
	if len(covered) != 1 {
		t.Fatalf("triangle covered %v, want one vertex", covered)
	}
	poison(1)
	publish(covered)
	write([]dynamic.Update{dynamic.InsertOp(2, 0)})
	if len(ref.Cover()) != 1 {
		t.Fatalf("re-closed triangle covered %v, want one vertex", ref.Cover())
	}
	poison(2)
	publish(nil)
}
