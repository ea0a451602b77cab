package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tdb/internal/dynamic"
	"tdb/internal/fault"
	"tdb/internal/verify"
	"tdb/internal/wal"
)

// Durability and crash-recovery tests. The in-process crash model: under
// fsync=always with no shutdown-time checkpoint, the data directory after
// Shutdown is byte-equivalent (for recovery purposes) to the directory after
// a kill -9 — every acknowledged record is synced, nothing else is in the
// log. Torn tails and corruption are then simulated by tampering with the
// files between rounds; the real kill -9 path is exercised end-to-end by the
// CI crash smoke on the built binary.

const (
	soakK      = 6
	soakMinLen = 3
	soakBaseN  = 32
)

// ackedBatch is one write the client got a 200 for, with its WAL sequence,
// and whether it published (and so reminimized) an epoch.
type ackedBatch struct {
	seq       uint64
	growTo    int
	ups       []dynamic.Update
	published bool
}

// replayAcked rebuilds the reference state: every acknowledged batch with
// sequence <= upTo, applied in acknowledgement order, each publishing one
// followed by a Reminimize as the server ran it. The reference holds other
// witnesses than the server, which recovered its cover without any, but a
// pass removes the same vertices whichever valid witnesses a maintainer
// holds.
func replayAcked(t *testing.T, acked []ackedBatch, upTo uint64) *dynamic.Maintainer {
	t.Helper()
	m := dynamic.New(soakBaseN, soakK, soakMinLen)
	for _, b := range acked {
		if b.seq > upTo {
			continue
		}
		if b.growTo > m.NumVertices() {
			m.Grow(b.growTo)
		}
		if _, err := m.ApplyBatchChecked(b.ups); err != nil {
			t.Fatalf("reference replay of acked batch %d: %v", b.seq, err)
		}
		if b.published {
			m.Reminimize()
		}
	}
	return m
}

// epochFingerprint hashes the server's current published epoch.
func epochFingerprint(s *Server) uint64 {
	e := s.ring.Acquire()
	defer e.Release()
	return dynamic.StateFingerprint(e.Graph(), e.Cover(), soakK, soakMinLen)
}

// updateBody builds the JSON for one batch.
func updateBody(growTo int, ups []dynamic.Update) string {
	type op struct {
		Op string `json:"op"`
		U  VID    `json:"u"`
		V  VID    `json:"v"`
	}
	ops := make([]op, len(ups))
	for i, u := range ups {
		ops[i] = op{Op: "insert", U: u.U, V: u.V}
		if u.Op == dynamic.OpDelete {
			ops[i].Op = "delete"
		}
	}
	req := map[string]any{"updates": ops, "wait": true}
	if growTo > 0 {
		req["grow_to"] = growTo
	}
	body, _ := json.Marshal(req)
	return string(body)
}

// newestSegment returns the path of the highest-numbered wal segment.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	best := ""
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") && name > best {
			best = name
		}
	}
	if best == "" {
		t.Fatal("no wal segment in data dir")
	}
	return filepath.Join(dir, best)
}

// armOnce arms a one-shot panic at site, returning the disarm func.
func armOnce(site fault.Site) func() {
	var fired atomic.Bool
	return fault.Arm(site, func() {
		if fired.CompareAndSwap(false, true) {
			panic(fmt.Sprintf("injected %s failure", site))
		}
	})
}

// soakRecord encodes one raw WAL record for tamper payloads. A record with
// a valid CRC but an out-of-sequence number is indistinguishable from real
// bytes, which is exactly what the seq-break tamper needs.
func soakRecord(seq uint64, payload []byte) []byte {
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], seq)
	table := crc32.MakeTable(crc32.Castagnoli)
	crc := crc32.Update(crc32.Update(0, table, sb[:]), table, payload)
	rec := make([]byte, 16+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[4:12], seq)
	binary.LittleEndian.PutUint32(rec[12:16], crc)
	copy(rec[16:], payload)
	return rec
}

// shutdownServer drains s and fails the test on error.
func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoverySoak is the crash-recovery soak: >= 60 rounds of
// start -> verify recovered state -> write (some rounds with injected
// panics on the WAL, apply and checkpoint paths) -> stop -> tamper
// (garbage tails, corrupt records, byte-level truncation). The invariant:
// after every restart the recovered state fingerprint equals a reference
// replay of exactly the acknowledged batches (bounded only by explicit
// byte-truncation loss, where the surviving prefix must still be exact),
// and the recovered cover is valid for the recovered graph.
func TestCrashRecoverySoak(t *testing.T) {
	const rounds = 60
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(20260808))

	var acked []ackedBatch // survives rounds, pruned on truncation loss
	maxAcked := uint64(0)
	lossRound := false // previous round ended in byte-truncation tampering
	removals := 0      // vertices publishing batches took out of the cover

	for round := 0; round < rounds; round++ {
		s, err := New(Config{
			K: soakK, MinLen: soakMinLen, NumVertices: soakBaseN,
			DataDir: dir, Fsync: wal.FsyncAlways,
			CheckpointEvery: 25, PublishEvery: 16,
		})
		if err != nil {
			t.Fatalf("round %d: restart: %v", round, err)
		}

		var stats StatsResponse
		if code := get(t, s, "/v1/stats", &stats); code != 200 || !stats.WALEnabled {
			t.Fatalf("round %d: stats code=%d wal_enabled=%v", round, code, stats.WALEnabled)
		}
		if lossRound {
			// Truncation may have discarded an acked suffix; the durable
			// prefix the server reports is the new truth. Loss must be
			// suffix-only: everything at or below WALLastSeq survives.
			for len(acked) > 0 && acked[len(acked)-1].seq > stats.WALLastSeq {
				acked = acked[:len(acked)-1]
			}
			maxAcked = stats.WALLastSeq
		} else if stats.WALLastSeq != maxAcked {
			t.Fatalf("round %d: recovered last seq %d, want %d (no tampering lost records)",
				round, stats.WALLastSeq, maxAcked)
		}

		ref := replayAcked(t, acked, maxAcked)
		if got, want := epochFingerprint(s), ref.Fingerprint(); got != want {
			t.Fatalf("round %d: recovered fingerprint %x != reference %x (%d acked batches, last seq %d)",
				round, got, want, len(acked), maxAcked)
		}
		e := s.ring.Acquire()
		ok, witness := verify.IsValid(e.Graph(), soakK, soakMinLen, e.Cover())
		e.Release()
		if !ok {
			t.Fatalf("round %d: recovered cover invalid, witness %v", round, witness)
		}

		// Some rounds arm a one-shot panic on a write-path probe; the
		// panicking batch must be answered 500 and appear in NEITHER the
		// reference nor the recovered state.
		armed := func() {}
		faultRound := round%4 == 1
		if faultRound {
			sites := []fault.Site{
				fault.SiteWALAppend, fault.SiteWALFsync,
				fault.SiteDynamicApplyBatch, fault.SiteWALCheckpoint,
			}
			armed = armOnce(sites[rng.Intn(len(sites))])
		}

		curN := ref.NumVertices()
		epoch := stats.Epoch
		for b, nBatches := 0, 1+rng.Intn(6); b < nBatches; b++ {
			growTo := 0
			if !faultRound && rng.Intn(8) == 0 {
				growTo = curN + 1 + rng.Intn(3)
			}
			ups := make([]dynamic.Update, 1+rng.Intn(5))
			span := curN
			if growTo > span {
				span = growTo
			}
			for i := range ups {
				u, v := VID(rng.Intn(span)), VID(rng.Intn(span))
				if rng.Intn(5) == 0 {
					ups[i] = dynamic.DeleteOp(u, v)
				} else {
					ups[i] = dynamic.InsertOp(u, v)
				}
			}
			var resp UpdateResponse
			code := post(t, s, "/v1/update", updateBody(growTo, ups), &resp)
			switch code {
			case 200:
				if resp.WALSeq == 0 {
					t.Fatalf("round %d: acked durable write without a wal_seq: %+v", round, resp)
				}
				acked = append(acked, ackedBatch{seq: resp.WALSeq, growTo: growTo, ups: ups, published: resp.Epoch > epoch})
				epoch = resp.Epoch
				removals += len(resp.CoverRemoved)
				maxAcked = resp.WALSeq
				if growTo > curN {
					curN = growTo
				}
			case 500:
				// Injected failure: the batch must be gone from everywhere.
			default:
				t.Fatalf("round %d: update code %d", round, code)
			}
		}
		armed()

		// Crash: shutdown without a checkpoint leaves the directory exactly
		// as a kill -9 would under fsync=always.
		shutdownServer(t, s)

		// Tamper with the tail between rounds.
		lossRound = false
		seg := newestSegment(t, dir)
		switch round % 5 {
		case 2: // garbage tail
			appendFile(t, seg, []byte{0xba, 0xdd, 0xad, 0x00, 0x01})
		case 3: // checksum-valid record with a broken sequence, then garbage
			appendFile(t, seg, soakRecord(maxAcked+7, []byte("time traveler")))
		case 4: // byte-level truncation: torn tail, possibly mid-record
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() > 8 {
				cut := 8 + rng.Int63n(info.Size()-8)
				if err := os.Truncate(seg, cut); err != nil {
					t.Fatal(err)
				}
				lossRound = true
			}
		}
	}

	if removals == 0 {
		t.Fatal("no publishing batch removed a cover vertex")
	}

	// Final restart after the last round's tampering must still come up.
	s, err := New(Config{
		K: soakK, MinLen: soakMinLen, NumVertices: soakBaseN,
		DataDir: dir, Fsync: wal.FsyncAlways,
	})
	if err != nil {
		t.Fatalf("final restart: %v", err)
	}
	e := s.ring.Acquire()
	ok, witness := verify.IsValid(e.Graph(), soakK, soakMinLen, e.Cover())
	e.Release()
	if !ok {
		t.Fatalf("final recovered cover invalid, witness %v", witness)
	}
	shutdownServer(t, s)
}

// TestRecoverReplayPanicFailsStartupCleanly: a panic while replaying a WAL
// record (chaos probe server/recover-replay) must surface as an error from
// New — diagnosable and restartable — not crash the process, and a retry
// without the fault recovers everything.
func TestRecoverReplayPanic(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{K: soakK, MinLen: soakMinLen, NumVertices: soakBaseN,
		DataDir: dir, Fsync: wal.FsyncAlways,
		// Never checkpoint mid-round so the records stay in the log for
		// replay on restart.
		CheckpointEvery: 1 << 30,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var resp UpdateResponse
	code := post(t, s, "/v1/update",
		`{"updates":[{"op":"insert","u":0,"v":1},{"op":"insert","u":1,"v":0}],"wait":true,"publish":true}`, &resp)
	if code != 200 || resp.WALSeq == 0 {
		t.Fatalf("durable write: code=%d resp=%+v", code, resp)
	}
	want := epochFingerprint(s)
	shutdownServer(t, s)

	disarm := fault.Arm(fault.SiteServerRecoverReplay, func() { panic("injected replay failure") })
	if _, err := New(cfg); err == nil {
		disarm()
		t.Fatal("New succeeded with a panicking replay")
	}
	disarm()

	s, err = New(cfg)
	if err != nil {
		t.Fatalf("restart after the fault cleared: %v", err)
	}
	if got := epochFingerprint(s); got != want {
		t.Fatalf("state after failed-then-clean recovery: %x, want %x", got, want)
	}
	shutdownServer(t, s)
}

// TestGracefulShutdownDurability: even under fsync=never, SIGTERM-style
// drain (Shutdown) must flush and fsync the WAL tail before returning, so a
// graceful stop loses nothing.
func TestGracefulShutdownDurability(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{K: soakK, MinLen: soakMinLen, NumVertices: soakBaseN,
		DataDir: dir, Fsync: wal.FsyncNever, CheckpointEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	for i := 0; i < 5; i++ {
		var resp UpdateResponse
		body := fmt.Sprintf(`{"updates":[{"op":"insert","u":%d,"v":%d}],"wait":true}`, i, i+1)
		if code := post(t, s, "/v1/update", body, &resp); code != 200 {
			t.Fatalf("write %d: code %d", i, code)
		}
		lastSeq = resp.WALSeq
	}
	if got := s.wal.Fsyncs(); got != 0 {
		t.Fatalf("fsync=never synced %d times before shutdown", got)
	}
	shutdownServer(t, s)
	if got := s.wal.Fsyncs(); got < 1 {
		t.Fatal("graceful shutdown did not fsync the WAL tail")
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq != lastSeq || rec.Truncated {
		t.Fatalf("after graceful shutdown: LastSeq=%d truncated=%v, want %d acknowledged records intact",
			rec.LastSeq, rec.Truncated, lastSeq)
	}
}

// TestDurableMissingDataDir: a data dir whose parent directories do not
// exist yet is created on first start, and a restart on it recovers the
// state the first server acknowledged.
func TestDurableMissingDataDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "data")
	cfg := Config{K: soakK, MinLen: soakMinLen, NumVertices: soakBaseN,
		DataDir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: 1 << 30}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("fresh nested data dir: %v", err)
	}
	var acked []ackedBatch
	for i := 0; i < 4; i++ {
		ups := []dynamic.Update{dynamic.InsertOp(dynamic.VID(i), dynamic.VID((i+1)%4))}
		var resp UpdateResponse
		if code := post(t, s, "/v1/update", updateBody(0, ups), &resp); code != 200 {
			t.Fatalf("write %d: code %d", i, code)
		}
		acked = append(acked, ackedBatch{seq: resp.WALSeq, ups: ups})
	}
	shutdownServer(t, s)

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer shutdownServer(t, s2)
	ref := replayAcked(t, acked, acked[len(acked)-1].seq)
	if got, want := epochFingerprint(s2), ref.Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint %x, reference replay of the acked writes %x", got, want)
	}
	if ref.CoverSize() == 0 {
		t.Fatal("the acked writes close a cycle, so the recovered cover must not be empty")
	}
}

// TestDurableConfigMismatch: a data dir created under one (k, minLen) must
// refuse to open under another, and records without any checkpoint must
// refuse to replay.
func TestDurableConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{K: soakK, MinLen: soakMinLen, NumVertices: soakBaseN,
		DataDir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: 1 << 30}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	post(t, s, "/v1/update", `{"updates":[{"op":"insert","u":0,"v":1}],"wait":true}`, nil)
	shutdownServer(t, s)

	bad := cfg
	bad.K = soakK + 1
	if _, err := New(bad); err == nil {
		t.Fatal("k mismatch accepted")
	}

	// Destroy every checkpoint: replaying records against an empty state
	// would fabricate history, so startup must refuse.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "ckpt-") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("records without a checkpoint accepted")
	}
}

// TestMetricsEndpoint checks the Prometheus text exposition.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{K: soakK, MinLen: soakMinLen, NumVertices: soakBaseN,
		DataDir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)
	post(t, s, "/v1/update", `{"updates":[{"op":"insert","u":0,"v":1}],"wait":true}`, nil)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := w.Body.String()
	for _, series := range []string{
		"tdbserve_requests_total ",
		"tdbserve_wal_enabled 1",
		"tdbserve_wal_appends_total 1",
		"tdbserve_wal_fsyncs_total 1",
		"tdbserve_wal_last_seq 1",
		"tdbserve_wal_recovery_replayed_total 0",
		"# TYPE tdbserve_wal_appends_total counter",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("metrics output missing %q:\n%s", series, body)
		}
	}
}
