// Package server implements tdbserve: a fault-tolerant concurrent query
// server over MVCC snapshots of a dynamic hop-constrained cycle cover.
//
// Architecture (DESIGN.md §12): ONE writer goroutine owns a
// dynamic.Maintainer and applies batched edge updates from a bounded queue;
// it periodically publishes immutable (graph, cover, engine) snapshots into
// a dynamic.EpochRing. Any number of reader requests acquire the current
// epoch, answer Solve / FindCycle / HasHopConstrainedCycle against it on a
// pooled core.Engine, and release it; per-epoch reference counts reclaim an
// epoch when the last reader lets go. Readers never lock against the writer
// and never observe a half-applied batch.
//
// Robustness layer:
//   - Admission control: a reader token bucket (MaxConcurrent) and a
//     bounded write queue (WriteQueue) shed excess load with 429 +
//     Retry-After instead of queueing unboundedly; the two pools are
//     separate so a write burst cannot starve readers or vice versa.
//   - Deadline propagation: every request runs under a context deadline
//     (server default, per-request override, hard cap), and solves can opt
//     into degrade-instead-of-fail (core.Options.PartialOnDeadline).
//   - Panic isolation: a panicking request is answered with 500 and the
//     process keeps serving; pooled solver scratch is quarantined by the
//     core layer, never returned poisoned. A panicking WRITER batch is
//     contained too: the maintainer is rebuilt from the last published
//     epoch plus the log of acknowledged-but-unpublished batches.
//   - Graceful shutdown: Shutdown stops admissions, waits for in-flight
//     requests, flushes and publishes the write queue, and only then
//     returns, so SIGTERM never drops acknowledged work.
package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tdb/internal/core"
	"tdb/internal/digraph"
	"tdb/internal/dynamic"
	"tdb/internal/wal"
)

// VID aliases digraph.VID.
type VID = digraph.VID

// Config configures a Server. Zero fields take the documented defaults.
type Config struct {
	// NumVertices is the initial vertex count of an empty server (ignored
	// when Seed is set). Vertices can be added later via the update
	// endpoint's grow_to field.
	NumVertices int
	// K is the server's hop constraint (required, >= MinLen): the
	// maintained cover covers cycles of length in [MinLen, K], and it is
	// the default (and maximum) k for per-request solves.
	K int
	// MinLen is the minimum covered cycle length (default 3).
	MinLen int
	// Seed, when non-nil, is the initial graph; SeedCover must then be a
	// valid cover of it (e.g. from core.Compute).
	Seed      digraph.Adjacency
	SeedCover []VID

	// DefaultDeadline bounds requests that do not ask for a deadline
	// (default 5s; negative disables the default).
	DefaultDeadline time.Duration
	// MaxDeadline caps per-request deadline overrides (default 30s).
	MaxDeadline time.Duration
	// MaxConcurrent is the reader admission limit (default 2*GOMAXPROCS).
	MaxConcurrent int
	// WriteQueue is the writer queue depth; a full queue sheds writes with
	// 429 (default 256).
	WriteQueue int
	// PublishEvery publishes a fresh epoch after this many applied updates
	// even without an explicit publish request (default 512).
	PublishEvery int
	// DegradeOnDeadline is the server-wide default for solve requests that
	// do not set partial_on_deadline: degraded valid cover instead of 504
	// when the deadline expires mid-solve.
	DegradeOnDeadline bool
	// MaxVertices caps grow_to requests (default math.MaxInt32, the largest
	// count an int holds on every platform) so a single bad update cannot
	// balloon the maintainer's per-vertex state.
	MaxVertices int

	// DataDir, when non-empty, enables durable writes: acknowledged batches
	// are appended to a write-ahead log in this directory, snapshot
	// checkpoints truncate the log, and startup recovers the state found
	// there (a checkpoint in the directory wins over Seed; its k/min_len
	// must match the config).
	DataDir string
	// Fsync is the WAL sync policy (default wal.FsyncAlways: an
	// acknowledged write survives any crash).
	Fsync wal.Policy
	// FsyncInterval is the background sync cadence under wal.FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// CheckpointEvery writes a snapshot checkpoint after this many logged
	// updates (default 1024).
	CheckpointEvery int
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.MinLen == 0 {
		cfg.MinLen = 3
	}
	if cfg.K < cfg.MinLen {
		return cfg, fmt.Errorf("server: K=%d < MinLen=%d", cfg.K, cfg.MinLen)
	}
	if cfg.Seed != nil {
		cfg.NumVertices = cfg.Seed.NumVertices()
	}
	if cfg.NumVertices < 0 {
		return cfg, fmt.Errorf("server: negative NumVertices")
	}
	if cfg.DefaultDeadline == 0 {
		cfg.DefaultDeadline = 5 * time.Second
	}
	if cfg.MaxDeadline == 0 {
		cfg.MaxDeadline = 30 * time.Second
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.WriteQueue <= 0 {
		cfg.WriteQueue = 256
	}
	if cfg.PublishEvery <= 0 {
		cfg.PublishEvery = 512
	}
	if cfg.MaxVertices <= 0 {
		cfg.MaxVertices = math.MaxInt32
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1024
	}
	return cfg, nil
}

// writeReq is one queued write batch.
type writeReq struct {
	updates []dynamic.Update
	growTo  int
	publish bool
	// resp, when non-nil, receives the outcome (buffered, writer never
	// blocks); nil for fire-and-forget requests.
	resp chan writeResp
}

type writeResp struct {
	added   []VID
	removed []VID // vertices the publish-time Reminimize removed
	epoch   uint64
	err     error
	// walSeq is the batch's WAL sequence number (0 when the server is not
	// durable or the batch changed nothing).
	walSeq uint64
	// panicked marks errors the writer recovered from (server faults, 500)
	// as opposed to validation rejections (client faults, 400).
	panicked bool
}

// Server is the query server. Create with New, mount Handler, stop with
// Shutdown.
type Server struct {
	cfg  Config
	ring *dynamic.EpochRing
	mux  *http.ServeMux

	// Reader admission tokens; acquiring is non-blocking (shed, don't queue).
	tokens chan struct{}

	// mu guards draining and pairs it with inflight.Add: a handler is
	// admitted (and counted) only while not draining, so inflight.Wait in
	// Shutdown races with no Add.
	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	writeQ     chan *writeReq
	writerDone chan struct{}

	// Writer-goroutine state (touched only by New before the writer starts,
	// then by the writer goroutine alone).
	m            *dynamic.Maintainer
	sincePublish int
	// appliedLog records acknowledged batches since the last publish, with
	// their cover decisions, so a writer panic can rebuild the maintainer
	// exactly as it was without losing them.
	appliedLog []walBatch

	// Durability (nil wal when Config.DataDir is empty). The log handle is
	// written once by New; sinceCheckpoint belongs to the writer goroutine.
	wal             *wal.Log
	sinceCheckpoint int

	// counters
	served         atomic.Int64 // requests answered (any status)
	shed           atomic.Int64 // 429s (readers + writers)
	degradedCount  atomic.Int64 // solves answered degraded
	deadlineCount  atomic.Int64 // solves that hit their deadline (504s)
	panicCount     atomic.Int64 // reader panics answered with 500
	writerPanics   atomic.Int64 // writer batches that panicked
	writerRestores atomic.Int64 // maintainer rebuilds after writer panics

	recovery           RecoveryStats // startup recovery, set once by New
	walCheckpoints     atomic.Int64  // checkpoints written since start
	walCheckpointFails atomic.Int64  // checkpoints that failed (server kept serving)
	walCheckpointNS    atomic.Int64  // duration of the last successful checkpoint

	// Reminimization at publish (see applyOne): passes run, vertices
	// re-tested and removed in total and by the last pass, cover vertices
	// awaiting a re-test after the last batch (broken and unknown
	// witnesses), and the last pass's and compaction's durations.
	remPasses, remRetests, remRemovals atomic.Int64
	remLastRetests, remLastRemovals    atomic.Int64
	remBroken, remUnknown              atomic.Int64
	remLastPassNS, lastCompactionNS    atomic.Int64

	// solves counts completed /v1/solve requests by execution profile
	// (strategy, filter tier, batch width, storage backend).
	solves solveSeries
}

// New validates cfg, seeds or recovers the maintainer (recovery when
// cfg.DataDir holds durable state), publishes the first epoch and starts the
// writer goroutine. Recovery completes — checkpoint loaded, record suffix
// replayed, fresh checkpoint durable — before the handler exists, so no
// request ever observes pre-recovery state.
func New(cfg Config) (*Server, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        c,
		ring:       dynamic.NewEpochRing(),
		tokens:     make(chan struct{}, c.MaxConcurrent),
		writeQ:     make(chan *writeReq, c.WriteQueue),
		writerDone: make(chan struct{}),
	}
	var m *dynamic.Maintainer
	switch {
	case c.DataDir != "":
		m, err = s.openDurable(&c)
		if err != nil {
			return nil, err
		}
	case c.Seed != nil:
		m, err = dynamic.FromGraph(c.Seed, c.K, c.MinLen, c.SeedCover)
		if err != nil {
			return nil, err
		}
	default:
		m = dynamic.New(c.NumVertices, c.K, c.MinLen)
	}
	s.m = m
	s.observeWitnesses()
	s.publish() // readers always find an epoch
	s.routes()
	go s.writerLoop()
	return s, nil
}

// Ring exposes the epoch ring (lifecycle hooks, leak audits in tests).
func (s *Server) Ring() *dynamic.EpochRing { return s.ring }

// Handler returns the HTTP handler serving the tdbserve API.
func (s *Server) Handler() http.Handler { return s.mux }

// publish snapshots the maintainer into a new epoch whose payload is a
// pooled solver engine over the snapshot. Writer goroutine only.
func (s *Server) publish() {
	s.m.PublishSnapshot(s.ring, func(g digraph.Adjacency, _ []VID) any {
		return core.NewEngine(g)
	})
	s.sincePublish = 0
	s.appliedLog = s.appliedLog[:0]
}

// writerLoop drains the write queue until Shutdown closes it, then takes a
// final snapshot so every acknowledged write is visible in the last epoch,
// and finally closes the WAL — Close fsyncs the tail regardless of policy,
// so a graceful shutdown never loses acknowledged records even under
// fsync=never. The final snapshot runs no Reminimize: removals would need
// a WAL record no client asked for, and the next start (which re-tests the
// whole recovered cover at its first publish) finds the same state.
func (s *Server) writerLoop() {
	defer close(s.writerDone)
	for req := range s.writeQ {
		resp := s.applyOne(req)
		if req.resp != nil {
			req.resp <- resp
		}
	}
	if s.sincePublish > 0 {
		s.publish()
	}
	if s.wal != nil {
		_ = s.wal.Close() // sticky error already surfaced on the write path
	}
}

// applyOne applies one batch with writer-panic containment: a panic
// anywhere in the maintenance code rolls the maintainer back to the last
// published epoch, replays the acknowledged-but-unpublished batches, and
// answers the poisoned batch with an error instead of dying.
func (s *Server) applyOne(req *writeReq) (resp writeResp) {
	defer func() {
		if p := recover(); p != nil {
			s.writerPanics.Add(1)
			s.restoreMaintainer()
			resp = writeResp{epoch: s.ring.Current(), panicked: true,
				err: fmt.Errorf("server: write batch failed: %v", p)}
		}
	}()
	if req.growTo > s.m.NumVertices() {
		s.m.Grow(req.growTo)
	}
	added, err := s.m.ApplyBatchChecked(req.updates)
	if err != nil {
		return writeResp{epoch: s.ring.Current(), err: err}
	}
	// A publish first restores minimality: the pass re-tests the cover
	// vertices whose witness broke or was never known, so readers only see
	// minimal covers, and its removals ride in this batch's record.
	publish := req.publish || s.sincePublish+len(req.updates) >= s.cfg.PublishEvery
	var removed []VID
	if publish {
		removed = s.reminimize()
	}
	// The batch carries the maintainer's current vertex count, not the
	// request's grow_to: growth is monotone, so this makes every record
	// self-sufficient even when an earlier grow rode a batch that was never
	// acknowledged (and therefore never logged).
	b := walBatch{growTo: s.m.NumVertices(), updates: req.updates, added: added, removed: removed}
	// Durability point: the batch is in memory but not yet acknowledged.
	// Log it before anything downstream can observe it as committed; if the
	// log refuses, roll memory back too (epoch + appliedLog rebuild, which
	// does not yet contain this batch) so the failed batch exists nowhere.
	var walSeq uint64
	if s.wal != nil && (len(req.updates) > 0 || req.growTo > 0 || len(removed) > 0) {
		walSeq, err = s.wal.Append(encodeWALRecord(b))
		if err != nil {
			s.restoreMaintainer()
			return writeResp{epoch: s.ring.Current(), panicked: true,
				err: fmt.Errorf("server: write not durable: %w", err)}
		}
		s.sinceCheckpoint += len(req.updates) + 1
	}
	if len(req.updates) > 0 || len(removed) > 0 {
		s.appliedLog = append(s.appliedLog, b)
		s.sincePublish += len(req.updates)
	}
	if publish {
		s.publish()
	}
	s.maybeCheckpoint()
	s.observeWitnesses()
	return writeResp{added: added, removed: removed, epoch: s.ring.Current(), walSeq: walSeq}
}

// observeWitnesses publishes the maintainer's re-test backlog and last
// compaction time to the stats gauges. Writer goroutine only.
func (s *Server) observeWitnesses() {
	broken, unknown := s.m.Witnesses()
	s.remBroken.Store(int64(broken))
	s.remUnknown.Store(int64(unknown))
	s.lastCompactionNS.Store(s.m.LastCompaction().Nanoseconds())
}

// reminimize runs the maintainer's Reminimize pass and records it for
// /v1/stats and /metrics. Writer goroutine only.
func (s *Server) reminimize() []VID {
	t0 := time.Now()
	p := s.m.ReminimizePass()
	s.remLastPassNS.Store(time.Since(t0).Nanoseconds())
	s.remPasses.Add(1)
	s.remRetests.Add(int64(p.Retested))
	s.remRemovals.Add(int64(len(p.Removed)))
	s.remLastRetests.Store(int64(p.Retested))
	s.remLastRemovals.Store(int64(len(p.Removed)))
	return p.Removed
}

// restoreMaintainer rebuilds the writer's maintainer from the last
// published epoch and replays the acknowledged batches since, in one
// ReplayBatches call with their logged cover decisions — the state the
// writer had, and the state WAL recovery would rebuild. Replay is
// best-effort: if a logged batch fails validation, the batches before it
// are kept and the rest of the tail is dropped; if the replay panics,
// nothing is kept. Either way the maintainer holds a valid (graph, cover)
// pair, at worst the bare epoch.
func (s *Server) restoreMaintainer() {
	s.writerRestores.Add(1)
	e := s.ring.Acquire()
	var m *dynamic.Maintainer
	if e == nil {
		m = dynamic.New(s.cfg.NumVertices, s.cfg.K, s.cfg.MinLen)
	} else {
		var err error
		// The epoch graph is adopted as the immutable CSR base without
		// copying — safe to share with readers, the maintainer only overlays
		// its touched rows on it.
		m, err = dynamic.FromGraph(e.Graph(), s.cfg.K, s.cfg.MinLen, e.Cover())
		e.Release()
		if err != nil { // unreachable: the epoch's cover came from this graph
			m = dynamic.New(s.cfg.NumVertices, s.cfg.K, s.cfg.MinLen)
		}
	}
	grow := s.m.NumVertices()
	log := s.appliedLog
	s.m = m
	kept := 0
	func() {
		defer func() { recover() }() // a panic leaves m as it was
		kept, _ = m.ReplayBatches(replayBatches(log))
	}()
	m.Grow(grow)
	s.appliedLog = log[:kept]
	s.sincePublish = 0
	for _, b := range s.appliedLog {
		s.sincePublish += len(b.updates)
	}
	s.observeWitnesses()
}

// admit counts the request against shutdown draining and, for reader
// endpoints, the token bucket. It returns a non-nil release func on
// success, or an HTTP status to shed with.
func (s *Server) admit(readerToken bool) (release func(), status int) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	if !readerToken {
		return func() { s.inflight.Done() }, 0
	}
	select {
	case s.tokens <- struct{}{}:
		return func() { <-s.tokens; s.inflight.Done() }, 0
	default:
		s.inflight.Done()
		s.shed.Add(1)
		return nil, http.StatusTooManyRequests
	}
}

// requestContext derives the per-request deadline: the request's own
// deadline_ms when given, the server default otherwise, both capped by
// MaxDeadline.
func (s *Server) requestContext(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc, error) {
	if deadlineMS < 0 {
		return nil, nil, fmt.Errorf("negative deadline_ms %d", deadlineMS)
	}
	d := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	if d <= 0 {
		ctx, cancel := context.WithCancel(r.Context())
		return ctx, cancel, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// Shutdown drains the server: stop admitting, wait for in-flight requests,
// close and flush the write queue (final epoch publish included), then
// return. Safe to call once; ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		select {
		case <-s.writerDone:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	drained := make(chan struct{})
	go func() {
		// No Add can race this Wait: admission checks draining under mu.
		s.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	// No handler can be mid-send on writeQ anymore: sends happen inside the
	// inflight window.
	close(s.writeQ)
	select {
	case <-s.writerDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enqueueWrite submits a batch to the writer with back-pressure: a full
// queue sheds instead of blocking the handler.
func (s *Server) enqueueWrite(req *writeReq) bool {
	select {
	case s.writeQ <- req:
		return true
	default:
		s.shed.Add(1)
		return false
	}
}
