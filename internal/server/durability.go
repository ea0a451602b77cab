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

// WAL record payload: one write batch.
//
//	growTo  u64
//	count   u32
//	count × (op u8, u u32, v u32)
const walRecordHeader = 12

func encodeWALRecord(growTo int, ups []dynamic.Update) []byte {
	buf := make([]byte, walRecordHeader, walRecordHeader+9*len(ups))
	binary.LittleEndian.PutUint64(buf[0:8], uint64(growTo))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(ups)))
	var b4 [4]byte
	for _, u := range ups {
		buf = append(buf, byte(u.Op))
		binary.LittleEndian.PutUint32(b4[:], uint32(u.U))
		buf = append(buf, b4[:]...)
		binary.LittleEndian.PutUint32(b4[:], uint32(u.V))
		buf = append(buf, b4[:]...)
	}
	return buf
}

func decodeWALRecord(payload []byte) (growTo int, ups []dynamic.Update, err error) {
	if len(payload) < walRecordHeader {
		return 0, nil, fmt.Errorf("record too short (%d bytes)", len(payload))
	}
	g := binary.LittleEndian.Uint64(payload[0:8])
	count := binary.LittleEndian.Uint32(payload[8:12])
	if g > uint64(1)<<31 {
		return 0, nil, fmt.Errorf("grow_to %d out of range", g)
	}
	if uint64(len(payload)-walRecordHeader) != uint64(count)*9 {
		return 0, nil, fmt.Errorf("record length %d does not match %d updates", len(payload), count)
	}
	ups = make([]dynamic.Update, count)
	off := walRecordHeader
	for i := range ups {
		op := dynamic.Op(payload[off])
		if op != dynamic.OpInsert && op != dynamic.OpDelete {
			return 0, nil, fmt.Errorf("update %d: unknown op byte %d", i, payload[off])
		}
		ups[i] = dynamic.Update{
			Op: op,
			U:  VID(binary.LittleEndian.Uint32(payload[off+1 : off+5])),
			V:  VID(binary.LittleEndian.Uint32(payload[off+5 : off+9])),
		}
		off += 9
	}
	return int(g), ups, nil
}

// openDurable recovers the maintainer from c.DataDir and opens the log for
// appending. Called by New before the first publish, so the recovered state
// is what readers see from the first request on. The order of durable steps
// matters: the post-recovery checkpoint is written BEFORE the new segment is
// created, preserving the invariant that records on disk always have a
// checkpoint at or below them to replay from.
func (s *Server) openDurable(c *Config) (*dynamic.Maintainer, error) {
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
	for _, r := range rec.Records {
		if err := replayRecord(m, r); err != nil {
			return nil, err
		}
	}
	s.walRecovered.Store(int64(len(rec.Records)))

	// Durable barrier: checkpoint the recovered state, then start the new
	// segment, then garbage-collect. A crash between any two steps leaves a
	// directory the same recovery handles. A fresh data dir may not exist
	// yet (Recover treats a missing one as empty), and the checkpoint is
	// written before wal.Create would make it, so make it here.
	if err := os.MkdirAll(c.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating data dir: %w", err)
	}
	var state bytes.Buffer
	if err := m.WriteState(&state); err != nil {
		return nil, fmt.Errorf("server: serializing recovered state: %w", err)
	}
	if err := wal.WriteCheckpoint(c.DataDir, rec.LastSeq, state.Bytes()); err != nil {
		return nil, err
	}
	l, err := wal.Create(c.DataDir, rec.LastSeq+1, wal.Options{Fsync: c.Fsync, Interval: c.FsyncInterval})
	if err != nil {
		return nil, err
	}
	wal.RemoveObsolete(c.DataDir, l.SegmentStart(), rec.LastSeq)
	s.wal = l
	return m, nil
}

// replayRecord applies one recovered WAL record. A panic out of the
// maintenance code (or the chaos probe) is converted into an error so a
// poisoned record fails startup diagnosably instead of crashing it — the
// directory is untouched and a fixed binary can retry.
func replayRecord(m *dynamic.Maintainer, r wal.Record) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("server: replaying WAL record %d: panic: %v", r.Seq, p)
		}
	}()
	fault.Inject(fault.SiteServerRecoverReplay)
	growTo, ups, err := decodeWALRecord(r.Payload)
	if err != nil {
		return fmt.Errorf("server: WAL record %d: %w", r.Seq, err)
	}
	if growTo > m.NumVertices() {
		m.Grow(growTo)
	}
	if _, err := m.ApplyBatchChecked(ups); err != nil {
		// Unreachable for records this server wrote (batches are validated
		// before they are applied or logged), so this is corruption that
		// happened to pass the CRC — refuse it.
		return fmt.Errorf("server: WAL record %d does not apply: %w", r.Seq, err)
	}
	return nil
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
	var buf bytes.Buffer
	if err := s.m.WriteState(&buf); err != nil {
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
