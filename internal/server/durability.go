package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"tdb/internal/dynamic"
	"tdb/internal/fault"
	"tdb/internal/wal"
)

// The durability layer (DESIGN.md §14). With Config.DataDir set, every
// acknowledged write batch is appended to a write-ahead log before the
// client hears "applied", and the maintainer's state is periodically
// checkpointed so the log stays short. Startup recovers: newest valid
// checkpoint, replay the record suffix (torn tail already truncated by
// wal.Recover), publish the recovered epoch before admitting traffic.
//
// Ordering on the write path is apply -> append -> acknowledge. A batch the
// WAL rejects is rolled back out of memory (the same epoch-plus-log rebuild
// that contains writer panics) and answered 500, so a failed batch exists in
// NEITHER memory nor the log — at-most-once, never half-durable. The
// reverse order (log first) would resurrect batches that never made it into
// memory.

// WAL record payload: one acknowledged write batch and the cover decisions
// it made.
//
//	growTo   u64        maintainer vertex count at append time
//	count    u32
//	count × (op u8, u u32, v u32)
//	added    u32        cover vertices the batch added
//	added × u32         in the order ApplyBatch added them
//	removed  u32        only when >= 1: vertices the publish-time
//	removed × u32       Reminimize removed, ascending
//
// Replay re-applies the edges and adopts the logged cover decisions instead
// of re-running the cycle searches, so recovery rebuilds exactly the
// acknowledged state. A run of such records replays in one
// dynamic.Maintainer.ReplayBatches call: one sort of the run's updates and
// one merge into a fresh CSR, which the post-recovery checkpoint then
// serializes without compacting again.
//
// Lengths tell the three generations apart. A record that ends right after
// its updates was written before the trailer existed; it replays through
// ApplyBatchChecked. A trailer of exactly 4+4·added bytes removes nothing,
// which is every record from before removals were logged and every record
// of a batch that did not publish. Anything longer must carry a removal
// section of at least one vertex, exactly filling the record.
const walRecordHeader = 12

// walBatch is one acknowledged batch: a WAL record's content, and one entry
// of the writer's unpublished tail (Server.appliedLog).
type walBatch struct {
	growTo  int
	updates []dynamic.Update
	added   []VID
	removed []VID
}

func encodeWALRecord(b walBatch) []byte {
	size := walRecordHeader + 9*len(b.updates) + 4 + 4*len(b.added)
	if len(b.removed) > 0 {
		size += 4 + 4*len(b.removed)
	}
	buf := make([]byte, walRecordHeader, size)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(b.growTo))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(b.updates)))
	for _, u := range b.updates {
		buf = append(buf, byte(u.Op))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(u.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(u.V))
	}
	buf = appendVertices(buf, b.added)
	if len(b.removed) > 0 {
		buf = appendVertices(buf, b.removed)
	}
	return buf
}

// appendVertices appends a count and the vertices to buf.
func appendVertices(buf []byte, vs []VID) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// decodeWALRecord parses a record payload. legacy reports a record without
// the cover trailer (b.added is then nil and meaningless).
func decodeWALRecord(payload []byte) (b walBatch, legacy bool, err error) {
	if len(payload) < walRecordHeader {
		return b, false, fmt.Errorf("record too short (%d bytes)", len(payload))
	}
	g := binary.LittleEndian.Uint64(payload[0:8])
	count := binary.LittleEndian.Uint32(payload[8:12])
	if g > uint64(1)<<31 {
		return b, false, fmt.Errorf("grow_to %d out of range", g)
	}
	body := uint64(len(payload) - walRecordHeader)
	if body < uint64(count)*9 {
		return b, false, fmt.Errorf("record length %d does not match %d updates", len(payload), count)
	}
	ups := make([]dynamic.Update, count)
	off := walRecordHeader
	for i := range ups {
		op := dynamic.Op(payload[off])
		if op != dynamic.OpInsert && op != dynamic.OpDelete {
			return b, false, fmt.Errorf("update %d: unknown op byte %d", i, payload[off])
		}
		ups[i] = dynamic.Update{
			Op: op,
			U:  VID(binary.LittleEndian.Uint32(payload[off+1 : off+5])),
			V:  VID(binary.LittleEndian.Uint32(payload[off+5 : off+9])),
		}
		off += 9
	}
	b = walBatch{growTo: int(g), updates: ups}
	trailer := payload[off:]
	if len(trailer) == 0 {
		return b, true, nil
	}
	if b.added, trailer, err = decodeVertices(trailer, g, "cover trailer"); err != nil {
		return walBatch{}, false, err
	}
	if len(trailer) == 0 {
		return b, false, nil
	}
	if b.removed, trailer, err = decodeVertices(trailer, g, "removal section"); err != nil {
		return walBatch{}, false, err
	}
	if len(b.removed) == 0 || len(trailer) > 0 {
		return walBatch{}, false, fmt.Errorf("removal section of %d vertices leaves %d bytes", len(b.removed), len(trailer))
	}
	return b, false, nil
}

// decodeVertices reads a count and that many vertices below n off the
// front of buf, returning them and the rest of buf. Vertices must fill buf
// exactly or leave room for a further counted section.
func decodeVertices(buf []byte, n uint64, what string) ([]VID, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("%s of %d bytes has no count", what, len(buf))
	}
	c := uint64(binary.LittleEndian.Uint32(buf))
	body := uint64(len(buf) - 4)
	if body < 4*c || (body > 4*c && body < 4*c+4) {
		return nil, nil, fmt.Errorf("%s of %d bytes does not match %d vertices", what, len(buf), c)
	}
	vs := make([]VID, c)
	for i := range vs {
		v := binary.LittleEndian.Uint32(buf[4+4*i:])
		if uint64(v) >= n {
			return nil, nil, fmt.Errorf("cover vertex %d out of range (record has %d vertices)", v, n)
		}
		vs[i] = VID(v)
	}
	return vs, buf[4+4*c:], nil
}

// RecoveryStats describes startup recovery from the data dir, phase by
// phase, so a slow restart shows which layer moved: Load is the directory
// scan plus decoding the checkpoint, Replay applies the WAL suffix, and
// Checkpoint serializes the recovered state and makes it durable. All zero
// without a data dir.
type RecoveryStats struct {
	Records                  int64 // WAL records replayed
	Load, Replay, Checkpoint time.Duration
}

// Recovery reports how the server's startup recovery went.
func (s *Server) Recovery() RecoveryStats { return s.recovery }

// openDurable recovers the maintainer from c.DataDir and opens the log for
// appending. Called by New before the first publish, so the recovered state
// is what readers see from the first request on. The order of durable steps
// matters: the post-recovery checkpoint is written BEFORE the new segment is
// created, preserving the invariant that records on disk always have a
// checkpoint at or below them to replay from.
func (s *Server) openDurable(c *Config) (*dynamic.Maintainer, error) {
	t0 := time.Now()
	rec, err := wal.Recover(c.DataDir)
	if err != nil {
		return nil, err
	}
	var m *dynamic.Maintainer
	switch {
	case rec.Checkpoint != nil:
		m, err = dynamic.ReadState(bytes.NewReader(rec.Checkpoint))
		if err != nil {
			return nil, fmt.Errorf("server: loading checkpoint %d: %w", rec.CheckpointSeq, err)
		}
		if m.K() != c.K || m.MinLen() != c.MinLen {
			// Replaying k=5 history under k=7 would silently maintain a
			// different problem's cover; make the operator say what they mean.
			return nil, fmt.Errorf("server: data dir holds k=%d min_len=%d state, config asks for k=%d min_len=%d",
				m.K(), m.MinLen(), c.K, c.MinLen)
		}
	case len(rec.Records) > 0:
		// The server always writes a checkpoint before its first append, so
		// records without any loadable checkpoint mean the checkpoints were
		// destroyed — replaying from an empty graph would fabricate state.
		return nil, fmt.Errorf("server: data dir has %d WAL records but no valid checkpoint", len(rec.Records))
	case c.Seed != nil:
		m, err = dynamic.FromGraph(c.Seed, c.K, c.MinLen, c.SeedCover)
		if err != nil {
			return nil, err
		}
	default:
		m = dynamic.New(c.NumVertices, c.K, c.MinLen)
	}
	t1 := time.Now()
	if err := replayRecords(m, rec.Records); err != nil {
		return nil, err
	}
	t2 := time.Now()

	// Durable barrier: checkpoint the recovered state, then start the new
	// segment, then garbage-collect. A crash between any two steps leaves a
	// directory the same recovery handles. A fresh data dir may not exist
	// yet (Recover treats a missing one as empty), and the checkpoint is
	// written before wal.Create would make it, so make it here.
	if err := os.MkdirAll(c.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating data dir: %w", err)
	}
	state := bytes.NewBuffer(make([]byte, 0, m.StateSize()))
	if err := m.WriteState(state); err != nil {
		return nil, fmt.Errorf("server: serializing recovered state: %w", err)
	}
	if err := wal.WriteCheckpoint(c.DataDir, rec.LastSeq, state.Bytes()); err != nil {
		return nil, err
	}
	s.recovery = RecoveryStats{Records: int64(len(rec.Records)),
		Load: t1.Sub(t0), Replay: t2.Sub(t1), Checkpoint: time.Since(t2)}
	l, err := wal.Create(c.DataDir, rec.LastSeq+1, wal.Options{Fsync: c.Fsync, Interval: c.FsyncInterval})
	if err != nil {
		return nil, err
	}
	wal.RemoveObsolete(c.DataDir, l.SegmentStart(), rec.LastSeq)
	s.wal = l
	return m, nil
}

// replayRecords applies the recovered WAL records in order. Every record is
// decoded first, with the chaos probe firing once per record. Each run of
// consecutive records that carry a cover trailer then replays through one
// dynamic.Maintainer.ReplayBatches call; a legacy record ends the run and
// re-runs its batch through ApplyBatchChecked. A panic out of the
// maintenance code (or the probe) is converted into an error naming the
// records in flight, so a poisoned record fails startup diagnosably
// instead of crashing it — the directory is untouched and a fixed binary
// can retry.
func replayRecords(m *dynamic.Maintainer, recs []wal.Record) (err error) {
	var lo, hi int // the records in flight
	defer func() {
		if p := recover(); p != nil {
			span := fmt.Sprintf("record %d", recs[lo].Seq)
			if hi > lo {
				span = fmt.Sprintf("records %d-%d", recs[lo].Seq, recs[hi].Seq)
			}
			err = fmt.Errorf("server: replaying WAL %s: panic: %v", span, p)
		}
	}()
	batches := make([]walBatch, len(recs))
	legacy := make([]bool, len(recs))
	for i, r := range recs {
		lo, hi = i, i
		fault.Inject(fault.SiteServerRecoverReplay)
		if batches[i], legacy[i], err = decodeWALRecord(r.Payload); err != nil {
			return notApplying(r, err)
		}
	}
	run := 0 // first record of the current run of trailer records
	for i := 0; i <= len(recs); i++ {
		if i < len(recs) && !legacy[i] {
			continue
		}
		if run < i {
			lo, hi = run, i-1
			if applied, err := m.ReplayBatches(replayBatches(batches[run:i])); err != nil {
				return notApplying(recs[run+applied], err)
			}
		}
		if i < len(recs) {
			lo, hi = i, i
			m.Grow(batches[i].growTo)
			if _, err := m.ApplyBatchChecked(batches[i].updates); err != nil {
				return notApplying(recs[i], err)
			}
		}
		run = i + 1
	}
	return nil
}

// notApplying reports a record that cannot be replayed. That is
// unreachable for records this server wrote (batches are validated before
// they are applied or logged), so it is corruption that happened to pass
// the CRC — refuse it.
func notApplying(r wal.Record, err error) error {
	return fmt.Errorf("server: WAL record %d does not apply: %w", r.Seq, err)
}

// replayBatches converts logged batches to ReplayBatches' input.
func replayBatches(log []walBatch) []dynamic.Batch {
	out := make([]dynamic.Batch, len(log))
	for i, b := range log {
		out[i] = dynamic.Batch{GrowTo: b.growTo, Updates: b.updates, Added: b.added, Removed: b.removed}
	}
	return out
}

// maybeCheckpoint writes a snapshot checkpoint once enough updates have
// accumulated since the last one. Writer goroutine only.
func (s *Server) maybeCheckpoint() {
	if s.wal == nil || s.sinceCheckpoint < s.cfg.CheckpointEvery {
		return
	}
	s.checkpoint()
}

// checkpoint snapshots the maintainer, makes the snapshot durable, rotates
// the log and deletes what the snapshot made obsolete. Failure (or a panic
// out of the chaos probe) is contained: the server keeps serving on the
// previous checkpoint plus a longer log, and the failure counter surfaces
// the problem in /metrics. sinceCheckpoint is only reset on success, so the
// next batch retries.
func (s *Server) checkpoint() {
	defer func() {
		if p := recover(); p != nil {
			s.walCheckpointFails.Add(1)
		}
	}()
	start := time.Now()
	buf := bytes.NewBuffer(make([]byte, 0, s.m.StateSize()))
	if err := s.m.WriteState(buf); err != nil {
		s.walCheckpointFails.Add(1)
		return
	}
	seq := s.wal.LastSeq() // every record <= seq is applied: same goroutine
	if err := wal.WriteCheckpoint(s.cfg.DataDir, seq, buf.Bytes()); err != nil {
		s.walCheckpointFails.Add(1)
		return
	}
	if err := s.wal.Rotate(); err != nil {
		// The checkpoint is durable but the fresh segment is not writable;
		// the log is sticky-failed and subsequent writes will be refused.
		s.walCheckpointFails.Add(1)
		return
	}
	wal.RemoveObsolete(s.cfg.DataDir, s.wal.SegmentStart(), seq)
	s.sinceCheckpoint = 0
	s.walCheckpoints.Add(1)
	s.walCheckpointNS.Store(time.Since(start).Nanoseconds())
}
