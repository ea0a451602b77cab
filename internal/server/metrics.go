package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"tdb/internal/core"
)

// solveLabels is one per-solve execution profile: the dimensions a
// dashboard slices solve traffic by. All values come out of core.Stats, so
// the cardinality is tiny and bounded (the strategies × the storage
// backends in use).
type solveLabels struct {
	strategy string // execution strategy the planner selected
	storage  string // adjacency backend ("memory", "mapped", ...)
}

// solveSeries accumulates per-profile solve counts. A mutex-guarded map
// beats per-label atomics here: the observation is one map increment per
// completed solve, far off any hot path, and the label set is dynamic.
type solveSeries struct {
	mu     sync.Mutex
	counts map[solveLabels]int64
}

// observe records one completed solve's execution profile.
func (ss *solveSeries) observe(st *core.Stats) {
	l := solveLabels{strategy: st.Strategy, storage: st.Storage}
	ss.mu.Lock()
	if ss.counts == nil {
		ss.counts = make(map[solveLabels]int64)
	}
	ss.counts[l]++
	ss.mu.Unlock()
}

// write emits the series in the text exposition format, label sets sorted
// so consecutive scrapes are byte-stable.
func (ss *solveSeries) write(b *strings.Builder) {
	const name = "tdbserve_solves_total"
	fmt.Fprintf(b, "# HELP %s Completed solves by strategy and storage backend.\n# TYPE %s counter\n", name, name)
	ss.mu.Lock()
	lines := make([]string, 0, len(ss.counts))
	for l, v := range ss.counts {
		lines = append(lines, fmt.Sprintf("%s{strategy=%q,storage=%q} %d",
			name, l.strategy, l.storage, v))
	}
	ss.mu.Unlock()
	sort.Strings(lines)
	for _, ln := range lines {
		b.WriteString(ln)
		b.WriteByte('\n')
	}
}

// GET /metrics: the server's counters in the Prometheus text exposition
// format (version 0.0.4), hand-rolled — the format is a few lines of
// HELP/TYPE plus `name value`, not worth a client-library dependency. The
// series mirror /v1/stats; the WAL series appear only on durable servers so
// dashboards can alert on absence vs zero.

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()

	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	b01 := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}

	gauge("tdbserve_epoch", "Current published epoch ID.", float64(s.ring.Current()))
	gauge("tdbserve_epochs_live", "Snapshot epochs currently referenced.", float64(s.ring.Live()))
	counter("tdbserve_epochs_reclaimed_total", "Snapshot epochs reclaimed.", s.ring.Reclaimed())
	counter("tdbserve_requests_total", "Requests answered, any status.", s.served.Load())
	counter("tdbserve_shed_total", "Requests shed with 429 (readers and writers).", s.shed.Load())
	counter("tdbserve_degraded_total", "Solves answered with a degraded (valid, non-minimal) cover.", s.degradedCount.Load())
	counter("tdbserve_deadline_total", "Solves stopped by their deadline.", s.deadlineCount.Load())
	counter("tdbserve_panics_total", "Reader panics answered with 500.", s.panicCount.Load())
	counter("tdbserve_writer_panics_total", "Writer batches that panicked.", s.writerPanics.Load())
	counter("tdbserve_writer_restores_total", "Maintainer rebuilds after writer panics.", s.writerRestores.Load())
	gauge("tdbserve_draining", "1 while shutdown is draining requests.", b01(draining))
	counter("tdbserve_reminimize_passes_total", "Reminimize passes run by publishing batches.", s.remPasses.Load())
	counter("tdbserve_reminimize_retests_total", "Cover vertices re-tested by Reminimize passes.", s.remRetests.Load())
	counter("tdbserve_reminimize_removals_total", "Cover vertices Reminimize passes removed.", s.remRemovals.Load())
	gauge("tdbserve_reminimize_last_retests", "Cover vertices the last Reminimize pass re-tested.", float64(s.remLastRetests.Load()))
	gauge("tdbserve_reminimize_last_removals", "Cover vertices the last Reminimize pass removed.", float64(s.remLastRemovals.Load()))
	gauge("tdbserve_reminimize_last_duration_seconds", "Duration of the last Reminimize pass.", float64(s.remLastPassNS.Load())/1e9)
	gauge("tdbserve_witness_broken", "Cover vertices whose witness cycle broke, awaiting a re-test.", float64(s.remBroken.Load()))
	gauge("tdbserve_witness_unknown", "Cover vertices that never had a witness cycle, awaiting a re-test.", float64(s.remUnknown.Load()))
	gauge("tdbserve_compaction_last_duration_seconds", "Duration of the maintainer's last CSR compaction.", float64(s.lastCompactionNS.Load())/1e9)
	s.solves.write(&b)
	gauge("tdbserve_wal_enabled", "1 when writes are durable (a data dir is configured).", b01(s.wal != nil))
	if s.wal != nil {
		counter("tdbserve_wal_appends_total", "Write batches appended to the WAL.", s.wal.Appends())
		counter("tdbserve_wal_fsyncs_total", "WAL fsyncs issued.", s.wal.Fsyncs())
		gauge("tdbserve_wal_last_seq", "Sequence number of the last logged batch.", float64(s.wal.LastSeq()))
		counter("tdbserve_wal_recovery_replayed_total", "WAL records replayed during startup recovery.", s.recovery.Records)
		gauge("tdbserve_wal_recovery_load_seconds", "Startup recovery: data dir scan and checkpoint decode.", s.recovery.Load.Seconds())
		gauge("tdbserve_wal_recovery_replay_seconds", "Startup recovery: WAL record replay.", s.recovery.Replay.Seconds())
		gauge("tdbserve_wal_recovery_checkpoint_seconds", "Startup recovery: writing the recovered checkpoint.", s.recovery.Checkpoint.Seconds())
		counter("tdbserve_wal_checkpoints_total", "Snapshot checkpoints written.", s.walCheckpoints.Load())
		counter("tdbserve_wal_checkpoint_failures_total", "Checkpoint attempts that failed (server kept serving).", s.walCheckpointFails.Load())
		gauge("tdbserve_wal_last_checkpoint_duration_seconds", "Duration of the last successful checkpoint.", float64(s.walCheckpointNS.Load())/1e9)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
