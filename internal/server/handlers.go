package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"tdb/internal/core"
	"tdb/internal/dynamic"
	"tdb/internal/fault"
)

// maxBodyBytes bounds request bodies; oversized batches are a client error,
// not an OOM.
const maxBodyBytes = 8 << 20

// Wire types. All endpoints speak JSON; vertex IDs are uint32.

// SolveRequest asks for a fresh minimal cover of the current epoch.
type SolveRequest struct {
	// K overrides the hop constraint (default: server K; capped by it).
	K int `json:"k,omitempty"`
	// MinLen overrides the minimum cycle length (default: server MinLen).
	MinLen int `json:"min_len,omitempty"`
	// Algorithm names a core algorithm ("TDB++", "BUR+", ...; default TDB++).
	Algorithm string `json:"algorithm,omitempty"`
	// DeadlineMS overrides the server's default deadline, capped by its
	// maximum. 0 means the default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// PartialOnDeadline switches this solve to degrade-instead-of-fail:
	// on deadline expiry a VALID conservative (non-minimal) cover is
	// returned with degraded=true instead of a 504. Unset defers to the
	// server's DegradeOnDeadline default.
	PartialOnDeadline *bool `json:"partial_on_deadline,omitempty"`
}

// SolveResponse is a solve outcome.
type SolveResponse struct {
	Epoch     uint64 `json:"epoch"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	Cover     []VID  `json:"cover"`
	CoverSize int    `json:"cover_size"`
	// Degraded reports a deadline-degraded solve: Cover is valid but not
	// minimal (core.Stats.Degraded).
	Degraded   bool   `json:"degraded,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
	Algorithm  string `json:"algorithm"`
	DurationMS int64  `json:"duration_ms"`
}

// CycleRequest asks for one constrained cycle through a vertex.
type CycleRequest struct {
	Source     VID   `json:"source"`
	K          int   `json:"k,omitempty"`
	MinLen     int   `json:"min_len,omitempty"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// CycleResponse reports the found cycle, if any.
type CycleResponse struct {
	Epoch uint64 `json:"epoch"`
	Found bool   `json:"found"`
	Cycle []VID  `json:"cycle,omitempty"`
}

// HasCycleRequest asks whether any constrained cycle exists.
type HasCycleRequest struct {
	K          int   `json:"k,omitempty"`
	MinLen     int   `json:"min_len,omitempty"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// HasCycleResponse reports existence.
type HasCycleResponse struct {
	Epoch uint64 `json:"epoch"`
	Found bool   `json:"found"`
}

// CoverResponse is the maintained cover of the current epoch.
type CoverResponse struct {
	Epoch     uint64 `json:"epoch"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	Cover     []VID  `json:"cover"`
	CoverSize int    `json:"cover_size"`
}

// UpdateOp is one edge operation on the wire.
type UpdateOp struct {
	// Op is "insert" or "delete".
	Op string `json:"op"`
	U  VID    `json:"u"`
	V  VID    `json:"v"`
}

// UpdateRequest submits a batch of edge updates to the writer.
type UpdateRequest struct {
	Updates []UpdateOp `json:"updates"`
	// GrowTo raises the vertex count before applying (0 = keep).
	GrowTo int `json:"grow_to,omitempty"`
	// Publish forces a fresh epoch after this batch.
	Publish bool `json:"publish,omitempty"`
	// Wait blocks the request until the batch is applied and reports the
	// outcome; otherwise the batch is acknowledged as queued (202).
	Wait bool `json:"wait,omitempty"`
}

// UpdateResponse reports a write outcome.
type UpdateResponse struct {
	Accepted bool `json:"accepted"`
	// Applied is set on waited requests.
	Applied    bool  `json:"applied,omitempty"`
	CoverAdded []VID `json:"cover_added,omitempty"`
	// CoverRemoved lists the vertices the publish-time reminimization
	// took out of the cover, when this batch published.
	CoverRemoved []VID  `json:"cover_removed,omitempty"`
	Epoch        uint64 `json:"epoch,omitempty"`
	// WALSeq is the batch's write-ahead-log sequence number: under
	// fsync=always the batch is on stable storage when this is returned.
	// Zero when the server runs without a data dir.
	WALSeq uint64 `json:"wal_seq,omitempty"`
}

// StatsResponse is the server's counters.
type StatsResponse struct {
	Epoch           uint64 `json:"epoch"`
	EpochsLive      int64  `json:"epochs_live"`
	EpochsReclaimed int64  `json:"epochs_reclaimed"`
	Served          int64  `json:"served"`
	Shed            int64  `json:"shed"`
	Degraded        int64  `json:"degraded"`
	Deadlines       int64  `json:"deadlines"`
	Panics          int64  `json:"panics"`
	WriterPanics    int64  `json:"writer_panics"`
	WriterRestores  int64  `json:"writer_restores"`
	Draining        bool   `json:"draining"`

	// Reminimization, which every publishing batch runs before it is
	// logged: passes run, cover vertices re-tested and removed (in total
	// and by the last pass), cover vertices awaiting a re-test after the
	// last batch because their witness broke or was never known (a seeded
	// or recovered cover, or vertices a replayed log covered), and the last
	// pass's and the last compaction's durations.
	ReminimizePasses       int64   `json:"reminimize_passes"`
	ReminimizeRetests      int64   `json:"reminimize_retests"`
	ReminimizeRemovals     int64   `json:"reminimize_removals"`
	ReminimizeLastRetests  int64   `json:"reminimize_last_retests"`
	ReminimizeLastRemovals int64   `json:"reminimize_last_removals"`
	ReminimizeLastMS       float64 `json:"reminimize_last_ms"`
	WitnessBroken          int64   `json:"witness_broken"`
	WitnessUnknown         int64   `json:"witness_unknown"`
	CompactionLastMS       float64 `json:"compaction_last_ms"`

	// Durability counters, present when the server runs with a data dir.
	// The wal_recover_*_ms fields time startup recovery phase by phase
	// (RecoveryStats).
	WALEnabled             bool    `json:"wal_enabled,omitempty"`
	WALLastSeq             uint64  `json:"wal_last_seq,omitempty"`
	WALAppends             int64   `json:"wal_appends,omitempty"`
	WALFsyncs              int64   `json:"wal_fsyncs,omitempty"`
	WALRecovered           int64   `json:"wal_recovered,omitempty"`
	WALRecoverLoadMS       float64 `json:"wal_recover_load_ms,omitempty"`
	WALRecoverReplayMS     float64 `json:"wal_recover_replay_ms,omitempty"`
	WALRecoverCheckpointMS float64 `json:"wal_recover_checkpoint_ms,omitempty"`
	WALCheckpoints         int64   `json:"wal_checkpoints,omitempty"`
	WALCheckpointFails     int64   `json:"wal_checkpoint_failures,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // a broken client connection is not a server error
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeJSON decodes a bounded request body strictly (unknown fields and
// trailing garbage are client errors).
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.wrap(http.MethodGet, false, s.handleHealthz))
	s.mux.HandleFunc("/v1/stats", s.wrap(http.MethodGet, false, s.handleStats))
	s.mux.HandleFunc("/metrics", s.wrap(http.MethodGet, false, s.handleMetrics))
	s.mux.HandleFunc("/v1/solve", s.wrap(http.MethodPost, true, s.handleSolve))
	s.mux.HandleFunc("/v1/cycle", s.wrap(http.MethodPost, true, s.handleCycle))
	s.mux.HandleFunc("/v1/hascycle", s.wrap(http.MethodPost, true, s.handleHasCycle))
	s.mux.HandleFunc("/v1/cover", s.wrap(http.MethodPost, true, s.handleCover))
	s.mux.HandleFunc("/v1/update", s.wrap(http.MethodPost, false, s.handleUpdate))
}

// wrap is the per-request robustness boundary: method check, admission
// (drain + reader tokens), fault-injection site, and panic recovery. A
// panicking handler is answered with 500 and the next request proceeds on a
// healthy server — pooled solver scratch is quarantined by the core layer,
// and the request's epoch reference is released by the handler's own defer
// during the unwind.
func (s *Server) wrap(method string, readerToken bool, fn func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, "use %s", method)
			return
		}
		release, status := s.admit(readerToken)
		if release == nil {
			if status == http.StatusServiceUnavailable {
				writeError(w, status, "draining")
			} else {
				writeError(w, status, "over capacity")
			}
			return
		}
		defer release()
		defer func() {
			if p := recover(); p != nil {
				s.panicCount.Add(1)
				writeError(w, http.StatusInternalServerError, "internal error: %v", p)
			}
		}()
		s.served.Add(1)
		if readerToken {
			fault.Inject(fault.SiteServerReader)
		}
		fn(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "epoch": s.ring.Current(), "draining": draining,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	resp := StatsResponse{
		Epoch:           s.ring.Current(),
		EpochsLive:      s.ring.Live(),
		EpochsReclaimed: s.ring.Reclaimed(),
		Served:          s.served.Load(),
		Shed:            s.shed.Load(),
		Degraded:        s.degradedCount.Load(),
		Deadlines:       s.deadlineCount.Load(),
		Panics:          s.panicCount.Load(),
		WriterPanics:    s.writerPanics.Load(),
		WriterRestores:  s.writerRestores.Load(),
		Draining:        draining,

		ReminimizePasses:       s.remPasses.Load(),
		ReminimizeRetests:      s.remRetests.Load(),
		ReminimizeRemovals:     s.remRemovals.Load(),
		ReminimizeLastRetests:  s.remLastRetests.Load(),
		ReminimizeLastRemovals: s.remLastRemovals.Load(),
		ReminimizeLastMS:       ms(time.Duration(s.remLastPassNS.Load())),
		WitnessBroken:          s.remBroken.Load(),
		WitnessUnknown:         s.remUnknown.Load(),
		CompactionLastMS:       ms(time.Duration(s.lastCompactionNS.Load())),
	}
	if s.wal != nil {
		resp.WALEnabled = true
		resp.WALLastSeq = s.wal.LastSeq()
		resp.WALAppends = s.wal.Appends()
		resp.WALFsyncs = s.wal.Fsyncs()
		resp.WALRecovered = s.recovery.Records
		resp.WALRecoverLoadMS = ms(s.recovery.Load)
		resp.WALRecoverReplayMS = ms(s.recovery.Replay)
		resp.WALRecoverCheckpointMS = ms(s.recovery.Checkpoint)
		resp.WALCheckpoints = s.walCheckpoints.Load()
		resp.WALCheckpointFails = s.walCheckpointFails.Load()
	}
	writeJSON(w, http.StatusOK, resp)
}

// ms converts a duration to fractional milliseconds for JSON.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// solveParams validates and defaults the (k, minLen) pair against the
// server's constraint and the epoch graph.
func (s *Server) solveParams(k, minLen, n int) (int, int, error) {
	if minLen == 0 {
		minLen = s.cfg.MinLen
	}
	if k == 0 {
		k = s.cfg.K
	}
	if k < 0 || minLen < 2 {
		return 0, 0, fmt.Errorf("invalid constraint k=%d min_len=%d", k, minLen)
	}
	if k > s.cfg.K {
		// The maintained cover only guarantees [MinLen, K]; a longer-range
		// solve would silently answer a different problem per epoch.
		return 0, 0, fmt.Errorf("k=%d exceeds the server constraint K=%d", k, s.cfg.K)
	}
	if k < minLen {
		return 0, 0, fmt.Errorf("k=%d < min_len=%d", k, minLen)
	}
	// No simple cycle exceeds the vertex count; clamping keeps huge-k
	// requests cheap without changing answers.
	if k > n && n >= minLen {
		k = n
	}
	return k, minLen, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	algo := core.TDBPlusPlus
	if req.Algorithm != "" {
		var err error
		if algo, err = core.ParseAlgorithm(req.Algorithm); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	partial := s.cfg.DegradeOnDeadline
	if req.PartialOnDeadline != nil {
		partial = *req.PartialOnDeadline
	}
	ctx, cancel, err := s.requestContext(r, req.DeadlineMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()

	e := s.ring.Acquire()
	if e == nil {
		writeError(w, http.StatusServiceUnavailable, "no epoch published")
		return
	}
	defer e.Release()
	g := e.Graph()
	k, minLen, err := s.solveParams(req.K, req.MinLen, g.NumVertices())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	eng := e.Payload().(*core.Engine)
	start := time.Now()
	// Workers: 1 keeps execution on the sequential path Compute used to
	// take, but through the planning layer so Stats carries the full
	// execution profile (strategy, filter tier, storage) for the per-solve
	// metrics series.
	res, err := eng.Solve(ctx, core.SolveSpec{
		Algorithm: algo,
		Opts:      core.Options{K: k, MinLen: minLen, PartialOnDeadline: partial},
		Workers:   1,
	})
	if err != nil {
		var pe *core.PanicError
		if errors.As(err, &pe) {
			panic(pe) // solver worker died: surface through the 500 boundary
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if res.Stats.TimedOut {
		s.deadlineCount.Add(1)
		status := http.StatusGatewayTimeout
		if res.Stats.StopReason == "canceled" {
			// The client went away; the status is for the log's benefit.
			status = 499
		}
		writeError(w, status, "solve stopped (%s) before completion; retry with a longer deadline_ms or partial_on_deadline", res.Stats.StopReason)
		return
	}
	if res.Stats.Degraded {
		s.degradedCount.Add(1)
	}
	s.solves.observe(&res.Stats)
	writeJSON(w, http.StatusOK, SolveResponse{
		Epoch:      e.ID(),
		N:          g.NumVertices(),
		M:          g.NumEdges(),
		Cover:      res.Cover,
		CoverSize:  len(res.Cover),
		Degraded:   res.Stats.Degraded,
		StopReason: res.Stats.StopReason,
		Algorithm:  res.Stats.Algorithm,
		DurationMS: time.Since(start).Milliseconds(),
	})
}

func (s *Server) handleCycle(w http.ResponseWriter, r *http.Request) {
	var req CycleRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	ctx, cancel, err := s.requestContext(r, req.DeadlineMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	e := s.ring.Acquire()
	if e == nil {
		writeError(w, http.StatusServiceUnavailable, "no epoch published")
		return
	}
	defer e.Release()
	g := e.Graph()
	if uint64(req.Source) >= uint64(g.NumVertices()) {
		writeError(w, http.StatusBadRequest, "source %d out of range (epoch has %d vertices)",
			req.Source, g.NumVertices())
		return
	}
	k, minLen, err := s.solveParams(req.K, req.MinLen, g.NumVertices())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if ctx.Err() != nil {
		s.deadlineCount.Add(1)
		writeError(w, http.StatusGatewayTimeout, "deadline expired before the query ran")
		return
	}
	cyc := e.Payload().(*core.Engine).FindCycle(k, minLen, req.Source)
	writeJSON(w, http.StatusOK, CycleResponse{Epoch: e.ID(), Found: cyc != nil, Cycle: cyc})
}

func (s *Server) handleHasCycle(w http.ResponseWriter, r *http.Request) {
	var req HasCycleRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	ctx, cancel, err := s.requestContext(r, req.DeadlineMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	e := s.ring.Acquire()
	if e == nil {
		writeError(w, http.StatusServiceUnavailable, "no epoch published")
		return
	}
	defer e.Release()
	k, minLen, err := s.solveParams(req.K, req.MinLen, e.Graph().NumVertices())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if ctx.Err() != nil {
		s.deadlineCount.Add(1)
		writeError(w, http.StatusGatewayTimeout, "deadline expired before the query ran")
		return
	}
	found := e.Payload().(*core.Engine).HasHopConstrainedCycle(k, minLen)
	writeJSON(w, http.StatusOK, HasCycleResponse{Epoch: e.ID(), Found: found})
}

func (s *Server) handleCover(w http.ResponseWriter, r *http.Request) {
	e := s.ring.Acquire()
	if e == nil {
		writeError(w, http.StatusServiceUnavailable, "no epoch published")
		return
	}
	defer e.Release()
	writeJSON(w, http.StatusOK, CoverResponse{
		Epoch:     e.ID(),
		N:         e.Graph().NumVertices(),
		M:         e.Graph().NumEdges(),
		Cover:     e.Cover(),
		CoverSize: len(e.Cover()),
	})
}

// parseUpdates converts wire updates, rejecting unknown ops up front so the
// writer only ever sees well-formed batches.
func parseUpdates(ops []UpdateOp) ([]dynamic.Update, error) {
	ups := make([]dynamic.Update, 0, len(ops))
	for i, op := range ops {
		switch op.Op {
		case "insert":
			ups = append(ups, dynamic.InsertOp(op.U, op.V))
		case "delete":
			ups = append(ups, dynamic.DeleteOp(op.U, op.V))
		default:
			return nil, fmt.Errorf("update %d: unknown op %q (want insert or delete)", i, op.Op)
		}
	}
	return ups, nil
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if len(req.Updates) == 0 && !req.Publish && req.GrowTo == 0 {
		writeError(w, http.StatusBadRequest, "empty update")
		return
	}
	if req.GrowTo < 0 || req.GrowTo > s.cfg.MaxVertices {
		writeError(w, http.StatusBadRequest, "grow_to %d out of range", req.GrowTo)
		return
	}
	ups, err := parseUpdates(req.Updates)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	wr := &writeReq{updates: ups, growTo: req.GrowTo, publish: req.Publish}
	if req.Wait {
		wr.resp = make(chan writeResp, 1)
	}
	if !s.enqueueWrite(wr) {
		writeError(w, http.StatusTooManyRequests,
			"write queue full (%d pending)", cap(s.writeQ))
		return
	}
	if wr.resp == nil {
		writeJSON(w, http.StatusAccepted, UpdateResponse{Accepted: true})
		return
	}
	// The writer always answers every queued request — including during
	// shutdown, which closes the queue only after this handler returns — so
	// waiting here cannot deadlock.
	resp := <-wr.resp
	if resp.err != nil {
		// A batch the writer panicked on is a server fault; a batch the
		// validator rejected is a client fault.
		status := http.StatusBadRequest
		if resp.panicked {
			status = http.StatusInternalServerError
		}
		writeError(w, status, "%v", resp.err)
		return
	}
	writeJSON(w, http.StatusOK, UpdateResponse{
		Accepted: true, Applied: true, CoverAdded: resp.added, CoverRemoved: resp.removed,
		Epoch: resp.epoch, WALSeq: resp.walSeq,
	})
}
