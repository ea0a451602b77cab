package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tdb/internal/core"
	"tdb/internal/dynamic"
	"tdb/internal/fault"
	"tdb/internal/gen"
	"tdb/internal/verify"
)

// newTestServer builds a server and registers a drained shutdown.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// seededTestServer builds a server over a generated graph with a solved
// initial cover.
func seededTestServer(t *testing.T, n, m, k int, seed uint64) *Server {
	t.Helper()
	g := gen.ErdosRenyi(n, m, seed)
	res, err := core.Compute(g, core.TDBPlusPlus, core.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, Config{K: k, Seed: g, SeedCover: res.Cover})
}

// post sends a JSON request directly through the handler and decodes the
// response into out (when non-nil).
func post(t *testing.T, s *Server, path, body string, out any) int {
	t.Helper()
	return request(t, s, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)), out)
}

func get(t *testing.T, s *Server, path string, out any) int {
	t.Helper()
	return request(t, s, httptest.NewRequest(http.MethodGet, path, nil), out)
}

func request(t *testing.T, s *Server, r *http.Request, out any) int {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if out != nil && w.Code < 300 {
		if err := json.NewDecoder(w.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding %q: %v", r.URL.Path, w.Body.String(), err)
		}
	}
	return w.Code
}

func TestServeBasicFlow(t *testing.T) {
	s := newTestServer(t, Config{K: 5, NumVertices: 10})

	var health map[string]any
	if code := get(t, s, "/healthz", &health); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if health["epoch"].(float64) != 1 {
		t.Fatalf("fresh server epoch %v, want 1", health["epoch"])
	}

	// Insert a triangle, wait for application and a fresh epoch.
	var up UpdateResponse
	code := post(t, s, "/v1/update",
		`{"updates":[{"op":"insert","u":0,"v":1},{"op":"insert","u":1,"v":2},{"op":"insert","u":2,"v":0}],"publish":true,"wait":true}`, &up)
	if code != 200 || !up.Applied || up.Epoch != 2 {
		t.Fatalf("update: code=%d resp=%+v", code, up)
	}
	if len(up.CoverAdded) != 1 {
		t.Fatalf("triangle insertion added %v to the cover, want one vertex", up.CoverAdded)
	}

	var solve SolveResponse
	if code := post(t, s, "/v1/solve", `{}`, &solve); code != 200 {
		t.Fatalf("solve: %d", code)
	}
	if solve.Epoch != 2 || solve.CoverSize != 1 || solve.Degraded {
		t.Fatalf("solve: %+v, want 1 cover vertex at epoch 2", solve)
	}

	var cyc CycleResponse
	if code := post(t, s, "/v1/cycle", `{"source":0}`, &cyc); code != 200 || !cyc.Found {
		t.Fatalf("cycle: code=%d resp=%+v", code, cyc)
	}
	if len(cyc.Cycle) != 3 {
		t.Fatalf("cycle through 0: %v, want the triangle", cyc.Cycle)
	}

	var has HasCycleResponse
	if code := post(t, s, "/v1/hascycle", `{}`, &has); code != 200 || !has.Found {
		t.Fatalf("hascycle: code=%d resp=%+v", code, has)
	}

	var cov CoverResponse
	if code := post(t, s, "/v1/cover", `{}`, &cov); code != 200 || cov.CoverSize != 1 {
		t.Fatalf("cover: code=%d resp=%+v", code, cov)
	}

	// Deleting one triangle edge leaves an acyclic graph.
	code = post(t, s, "/v1/update",
		`{"updates":[{"op":"delete","u":2,"v":0}],"publish":true,"wait":true}`, &up)
	if code != 200 {
		t.Fatalf("delete: %d", code)
	}
	if code := post(t, s, "/v1/hascycle", `{}`, &has); code != 200 || has.Found {
		t.Fatalf("hascycle after delete: code=%d found=%v, want none", code, has.Found)
	}
}

func TestSolveDeadlineAndDegradation(t *testing.T) {
	s := seededTestServer(t, 500, 2500, 6, 21)

	// An unmeetable deadline without degradation is a 504 naming the reason.
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(`{"deadline_ms":1}`))
	ctx, cancel := context.WithDeadline(r.Context(), time.Now().Add(-time.Second))
	defer cancel()
	s.Handler().ServeHTTP(w, r.WithContext(ctx))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: %d %s", w.Code, w.Body.String())
	}

	// With partial_on_deadline the same request degrades to a valid cover.
	w = httptest.NewRecorder()
	r = httptest.NewRequest(http.MethodPost, "/v1/solve",
		strings.NewReader(`{"deadline_ms":1,"partial_on_deadline":true}`))
	s.Handler().ServeHTTP(w, r.WithContext(ctx))
	if w.Code != 200 {
		t.Fatalf("degraded solve: %d %s", w.Code, w.Body.String())
	}
	var resp SolveResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.StopReason != "deadline" {
		t.Fatalf("degraded=%v stop_reason=%q, want true/deadline", resp.Degraded, resp.StopReason)
	}
	e := s.Ring().Acquire()
	defer e.Release()
	if ok, witness := verify.IsValid(e.Graph(), 6, 3, resp.Cover); !ok {
		t.Fatalf("degraded cover invalid, surviving cycle %v", witness)
	}

	// An in-time solve under the same flag is not degraded.
	var ok SolveResponse
	if code := post(t, s, "/v1/solve", `{"partial_on_deadline":true}`, &ok); code != 200 {
		t.Fatalf("in-time solve: %d", code)
	}
	if ok.Degraded {
		t.Fatal("in-time solve reported degraded")
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{K: 5, NumVertices: 4})
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/solve", `{bad json`, 400},
		{"/v1/solve", `{"unknown_field":1}`, 400},
		{"/v1/solve", `{"algorithm":"NOPE"}`, 400},
		{"/v1/solve", `{"k":99}`, 400}, // beyond the server constraint
		{"/v1/solve", `{"k":4,"min_len":5}`, 400},
		{"/v1/solve", `{"deadline_ms":-5}`, 400},
		{"/v1/cycle", `{"source":100}`, 400},
		{"/v1/cycle", `{"source":4294967295}`, 400}, // negative as a 32-bit int
		{"/v1/update", `{}`, 400},
		{"/v1/update", `{"updates":[{"op":"upsert","u":0,"v":1}]}`, 400},
		{"/v1/update", `{"updates":[{"op":"insert","u":0,"v":200}],"wait":true}`, 400},
		{"/v1/update", `{"grow_to":-1}`, 400},
	}
	for _, c := range cases {
		if code := post(t, s, c.path, c.body, nil); code != c.want {
			t.Errorf("%s %s: code %d, want %d", c.path, c.body, code, c.want)
		}
	}
	if code := get(t, s, "/v1/solve", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET solve: %d, want 405", code)
	}
}

func TestReaderAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{K: 5, NumVertices: 4, MaxConcurrent: 1})

	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	disarm := fault.Arm(fault.SiteServerReader, func() {
		entered <- struct{}{}
		<-hold
	})
	defer disarm()

	done := make(chan int, 1)
	go func() { done <- post(t, s, "/v1/cover", `{}`, nil) }()
	<-entered // the slow request holds the only token

	if code := post(t, s, "/v1/cover", `{}`, nil); code != http.StatusTooManyRequests {
		t.Fatalf("second concurrent reader: %d, want 429", code)
	}
	// Writes use a separate pool: they proceed while readers are saturated.
	if code := post(t, s, "/v1/update",
		`{"updates":[{"op":"insert","u":0,"v":1}],"wait":true}`, nil); code != 200 {
		t.Fatalf("write during reader saturation: %d, want 200", code)
	}
	close(hold)
	if code := <-done; code != 200 {
		t.Fatalf("slow reader: %d, want 200", code)
	}
	if code := post(t, s, "/v1/cover", `{}`, nil); code != 200 {
		t.Fatalf("reader after release: %d, want 200", code)
	}
}

func TestWriterBackpressure(t *testing.T) {
	s := newTestServer(t, Config{K: 5, NumVertices: 4, WriteQueue: 1})

	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	disarm := fault.Arm("dynamic/apply-batch", func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-hold
	})
	defer disarm()

	// First write occupies the writer, second fills the queue, third sheds.
	if code := post(t, s, "/v1/update", `{"updates":[{"op":"insert","u":0,"v":1}]}`, nil); code != 202 {
		t.Fatalf("first write: %d, want 202", code)
	}
	<-entered
	if code := post(t, s, "/v1/update", `{"updates":[{"op":"insert","u":1,"v":2}]}`, nil); code != 202 {
		t.Fatalf("second write: %d, want 202", code)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/update",
		strings.NewReader(`{"updates":[{"op":"insert","u":2,"v":3}]}`)))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("third write: %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed write carried no Retry-After")
	}
	// Readers are unaffected by writer saturation.
	if code := post(t, s, "/v1/cover", `{}`, nil); code != 200 {
		t.Fatalf("reader during writer saturation: %d, want 200", code)
	}
	close(hold)
}

func TestReaderPanicIsolated(t *testing.T) {
	s := newTestServer(t, Config{K: 5, NumVertices: 4})
	disarm := fault.Arm(fault.SiteServerReader, func() { panic("injected reader panic") })
	if code := post(t, s, "/v1/cover", `{}`, nil); code != http.StatusInternalServerError {
		t.Fatalf("panicking request: %d, want 500", code)
	}
	disarm()
	if code := post(t, s, "/v1/cover", `{}`, nil); code != 200 {
		t.Fatalf("request after panic: %d, want 200", code)
	}
	if got := s.panicCount.Load(); got != 1 {
		t.Fatalf("panic counter %d, want 1", got)
	}
	// The panicking request's epoch reference was released on unwind.
	if live := s.Ring().Live(); live != 1 {
		t.Fatalf("Live=%d after reader panic, want 1", live)
	}
}

func TestWriterPanicRestoresAcknowledgedWrites(t *testing.T) {
	s := newTestServer(t, Config{K: 5, NumVertices: 10, PublishEvery: 1 << 30})

	// Acknowledge a triangle WITHOUT publishing: it lives only in the
	// writer's unpublished tail.
	if code := post(t, s, "/v1/update",
		`{"updates":[{"op":"insert","u":0,"v":1},{"op":"insert","u":1,"v":2},{"op":"insert","u":2,"v":0}],"wait":true}`, nil); code != 200 {
		t.Fatalf("triangle write: %d", code)
	}

	// Panic exactly once: the restore replays the acknowledged batches
	// through ApplyBatch again, and a real poison batch (excluded from the
	// log) would not poison the replay.
	var poisoned atomic.Bool
	disarm := fault.Arm("dynamic/apply-batch", func() {
		if poisoned.CompareAndSwap(false, true) {
			panic("injected writer panic")
		}
	})
	var up UpdateResponse
	code := post(t, s, "/v1/update", `{"updates":[{"op":"insert","u":3,"v":4}],"wait":true}`, &up)
	disarm()
	if code != http.StatusInternalServerError {
		t.Fatalf("poisoned batch: %d, want 500", code)
	}
	if s.writerPanics.Load() != 1 || s.writerRestores.Load() != 1 {
		t.Fatalf("writerPanics=%d writerRestores=%d, want 1/1",
			s.writerPanics.Load(), s.writerRestores.Load())
	}

	// The writer restored the acknowledged triangle; a publish makes it
	// visible and the triangle still has a cycle through it.
	if code := post(t, s, "/v1/update", `{"publish":true,"wait":true}`, nil); code != 200 {
		t.Fatalf("publish after restore: %d", code)
	}
	var has HasCycleResponse
	if code := post(t, s, "/v1/hascycle", `{}`, &has); code != 200 || !has.Found {
		t.Fatalf("acknowledged triangle lost after writer panic: code=%d found=%v", code, has.Found)
	}
}

func TestShutdownDrainsAndRefuses(t *testing.T) {
	s, err := New(Config{K: 5, NumVertices: 10, PublishEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// Queue fire-and-forget writes, then drain: the final epoch must carry
	// them even though nothing asked for a publish.
	for i := 0; i < 3; i++ {
		if code := post(t, s, "/v1/update",
			`{"updates":[{"op":"insert","u":0,"v":1},{"op":"insert","u":1,"v":2},{"op":"insert","u":2,"v":0}]}`, nil); code != 202 {
			t.Fatalf("queued write: %d", code)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if code := post(t, s, "/v1/cover", `{}`, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("request after shutdown: %d, want 503", code)
	}
	e := s.Ring().Acquire()
	defer e.Release()
	if e.ID() < 2 || e.Graph().NumEdges() != 3 {
		t.Fatalf("final epoch %d with %d edges; queued writes were dropped",
			e.ID(), e.Graph().NumEdges())
	}
	if live := s.Ring().Live(); live != 1 {
		t.Fatalf("Live=%d after drain, want 1", live)
	}
}

func TestGrowTo(t *testing.T) {
	s := newTestServer(t, Config{K: 5, NumVertices: 2})
	// Vertex 5 is out of range until grow_to raises the count.
	if code := post(t, s, "/v1/update",
		`{"updates":[{"op":"insert","u":0,"v":5}],"wait":true}`, nil); code != 400 {
		t.Fatalf("out-of-range insert: %d, want 400", code)
	}
	var up UpdateResponse
	if code := post(t, s, "/v1/update",
		`{"updates":[{"op":"insert","u":0,"v":5}],"grow_to":6,"wait":true,"publish":true}`, &up); code != 200 {
		t.Fatalf("grown insert: %d", code)
	}
	var cov CoverResponse
	if code := post(t, s, "/v1/cover", `{}`, &cov); code != 200 || cov.N != 6 {
		t.Fatalf("cover after grow: code=%d n=%d, want 6 vertices", code, cov.N)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{K: 5, NumVertices: 4})
	post(t, s, "/v1/cover", `{}`, nil)
	var st StatsResponse
	if code := get(t, s, "/v1/stats", &st); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if st.Epoch != 1 || st.EpochsLive != 1 || st.Served < 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStatsReminimize: /v1/stats and /metrics account for the pass each
// publishing batch runs. A triangle written without publishing leaves its
// cover vertex witnessed; deleting an edge breaks the witness, and the
// publish re-tests and removes that one vertex.
func TestStatsReminimize(t *testing.T) {
	s := newTestServer(t, Config{K: 5, NumVertices: 4, PublishEvery: 1 << 30})
	stats := func() StatsResponse {
		t.Helper()
		var st StatsResponse
		if code := get(t, s, "/v1/stats", &st); code != 200 {
			t.Fatalf("stats: %d", code)
		}
		return st
	}
	post(t, s, "/v1/update", updateBody(0, []dynamic.Update{
		dynamic.InsertOp(0, 1), dynamic.InsertOp(1, 2), dynamic.InsertOp(2, 0)}), nil)
	post(t, s, "/v1/update", updateBody(0, []dynamic.Update{dynamic.DeleteOp(2, 0)}), nil)
	if st := stats(); st.WitnessBroken != 1 || st.WitnessUnknown != 0 || st.ReminimizePasses != 0 {
		t.Fatalf("before the publish: %+v", st)
	}
	if code := post(t, s, "/v1/update", `{"publish":true,"wait":true}`, nil); code != 200 {
		t.Fatalf("publish: %d", code)
	}
	st := stats()
	if st.ReminimizePasses != 1 || st.ReminimizeRetests != 1 || st.ReminimizeRemovals != 1 ||
		st.ReminimizeLastRetests != 1 || st.ReminimizeLastRemovals != 1 || st.WitnessBroken != 0 ||
		st.ReminimizeLastMS <= 0 || st.CompactionLastMS <= 0 {
		t.Fatalf("after the publish: %+v", st)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, series := range []string{
		"tdbserve_reminimize_passes_total 1",
		"tdbserve_reminimize_retests_total 1",
		"tdbserve_reminimize_removals_total 1",
		"tdbserve_reminimize_last_removals 1",
		"tdbserve_witness_broken 0",
		"tdbserve_witness_unknown 0",
		"# TYPE tdbserve_reminimize_last_duration_seconds gauge",
		"# TYPE tdbserve_compaction_last_duration_seconds gauge",
	} {
		if !strings.Contains(w.Body.String(), series) {
			t.Fatalf("metrics output missing %q:\n%s", series, w.Body.String())
		}
	}
}

// TestDeadlineCapped: a huge requested deadline is capped by MaxDeadline —
// observable through the context the solve runs under.
func TestDeadlineCapped(t *testing.T) {
	s := newTestServer(t, Config{K: 5, NumVertices: 4, MaxDeadline: 50 * time.Millisecond})
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", nil)
	ctx, cancel, err := s.requestContext(r, 3600_000)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok || time.Until(dl) > 60*time.Millisecond {
		t.Fatalf("deadline %v (ok=%v), want capped at ~50ms", time.Until(dl), ok)
	}
}
