package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tdb/internal/fault"
	"tdb/internal/gen"
	"tdb/internal/verify"
)

// countdownContext is a context whose Err reports context.Canceled from
// poll n+1 on, where n is the count cancelAfter was given. Core reads
// cancellation only through Options.stop, one Err call per poll, so the
// countdown stops a run at a chosen point in its loop. Safe for concurrent
// polling.
type countdownContext struct {
	context.Context
	left atomic.Int64
}

// cancelAfter returns a countdownContext that lets n polls pass.
func cancelAfter(n int64) *countdownContext {
	c := &countdownContext{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownContext) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// expiredContext returns a context whose deadline already passed.
func expiredContext(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	return ctx
}

func TestPartialOnDeadlineDegradesValid(t *testing.T) {
	gr := gen.ErdosRenyi(400, 1600, 7)
	for _, a := range []Algorithm{TDB, TDBPlus, TDBPlusPlus} {
		opts := Options{K: 8, Context: expiredContext(t), PartialOnDeadline: true}
		r, err := Compute(gr, a, opts)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if !r.Stats.Degraded || r.Stats.TimedOut {
			t.Fatalf("%v: Degraded=%v TimedOut=%v, want degraded-only",
				a, r.Stats.Degraded, r.Stats.TimedOut)
		}
		if r.Stats.StopReason != "deadline" {
			t.Fatalf("%v: StopReason=%q, want deadline", a, r.Stats.StopReason)
		}
		if ok, witness := verify.IsValid(gr, opts.K, 3, r.Cover); !ok {
			t.Fatalf("%v: degraded cover invalid, surviving cycle %v", a, witness)
		}
	}
}

func TestPartialOnDeadlineMidRun(t *testing.T) {
	// A stop that trips mid-loop (not before it) exercises the interesting
	// path: part minimal cover, part conservative completion.
	gr := gen.ErdosRenyi(600, 3000, 11)
	opts := Options{
		K:                 8,
		PartialOnDeadline: true,
		Context:           cancelAfter(50),
	}
	r, err := Compute(gr, TDBPlusPlus, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats.Degraded {
		t.Fatal("context canceled mid-run but result not degraded")
	}
	if r.Stats.StopReason != "canceled" {
		t.Fatalf("StopReason=%q, want canceled", r.Stats.StopReason)
	}
	if ok, witness := verify.IsValid(gr, opts.K, 3, r.Cover); !ok {
		t.Fatalf("degraded cover invalid, surviving cycle %v", witness)
	}
	// The degraded cover must be a superset of the in-time minimal one.
	full, err := Compute(gr, TDBPlusPlus, Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cover) < len(full.Cover) {
		t.Fatalf("degraded cover smaller (%d) than the minimal one (%d)",
			len(r.Cover), len(full.Cover))
	}
}

func TestPartialOnDeadlineInTimeNoOp(t *testing.T) {
	gr := gen.ErdosRenyi(300, 1200, 3)
	for _, a := range []Algorithm{TDB, TDBPlus, TDBPlusPlus} {
		plain := mustCompute(t, gr, a, Options{K: 8})
		flagged := mustCompute(t, gr, a, Options{K: 8, PartialOnDeadline: true})
		if flagged.Stats.Degraded {
			t.Fatalf("%v: in-time solve reported Degraded", a)
		}
		if flagged.Stats.StopReason != "" {
			t.Fatalf("%v: in-time solve reported StopReason=%q", a, flagged.Stats.StopReason)
		}
		if len(plain.Cover) != len(flagged.Cover) {
			t.Fatalf("%v: cover changed under the flag: %d vs %d vertices",
				a, len(plain.Cover), len(flagged.Cover))
		}
		for i := range plain.Cover {
			if plain.Cover[i] != flagged.Cover[i] {
				t.Fatalf("%v: cover changed under the flag at %d", a, i)
			}
		}
	}
}

func TestPartialOnDeadlineUnsupported(t *testing.T) {
	gr := g(3, 0, 1, 1, 2, 2, 0)
	opts := Options{K: 5, PartialOnDeadline: true}
	for _, a := range []Algorithm{BUR, BURPlus, DARCDV} {
		if _, err := Compute(gr, a, opts); err == nil {
			t.Fatalf("%v: PartialOnDeadline accepted, want error", a)
		}
	}
	if _, err := ComputeParallel(gr, BUR, opts, 2); err == nil {
		t.Fatal("ComputeParallel(BUR): PartialOnDeadline accepted, want error")
	}
	if _, err := TopDownEdges(gr, opts); err == nil {
		t.Fatal("TopDownEdges: PartialOnDeadline accepted, want error")
	}
}

func TestPartialOnDeadlineParallelSCC(t *testing.T) {
	gr := gen.Communities(8, 40, 0.15, 0.002, 5)
	opts := Options{K: 8, Context: expiredContext(t), PartialOnDeadline: true}
	r, err := ComputeParallel(gr, TDBPlusPlus, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats.Degraded || r.Stats.TimedOut {
		t.Fatalf("Degraded=%v TimedOut=%v, want degraded-only", r.Stats.Degraded, r.Stats.TimedOut)
	}
	if ok, witness := verify.IsValid(gr, opts.K, 3, r.Cover); !ok {
		t.Fatalf("degraded parallel cover invalid, surviving cycle %v", witness)
	}
}

func TestStopReasonCanceled(t *testing.T) {
	gr := gen.ErdosRenyi(300, 1200, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := Compute(gr, TDBPlusPlus, Options{K: 8, Context: ctx, PartialOnDeadline: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats.Degraded || r.Stats.StopReason != "canceled" {
		t.Fatalf("Degraded=%v StopReason=%q, want degraded/canceled",
			r.Stats.Degraded, r.Stats.StopReason)
	}
}

// panicOnce returns a hook that panics with v on its first call only.
func panicOnce(v any) func() {
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			panic(v)
		}
	}
}

func TestPrepassWorkerPanicIsolated(t *testing.T) {
	gr := gen.ErdosRenyi(3000, 12000, 13)
	disarm := fault.Arm("core/prepass-worker", panicOnce("injected prepass panic"))
	defer disarm()
	_, err := Compute(gr, TDBPlusPlus, Options{K: 6, PrepassWorkers: 4})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err=%v, want a *PanicError", err)
	}
	if pe.Value != "injected prepass panic" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError lost the original panic: value=%v stackLen=%d", pe.Value, len(pe.Stack))
	}
	disarm()
	// The pool must be healthy afterwards: same solve, correct cover.
	r := mustCompute(t, gr, TDBPlusPlus, Options{K: 6, PrepassWorkers: 4})
	checkCover(t, gr, TDBPlusPlus, Options{K: 6}, r)
}

func TestParallelWorkerPanicIsolated(t *testing.T) {
	gr := gen.Communities(12, 30, 0.2, 0.002, 9)
	disarm := fault.Arm("core/parallel-worker", panicOnce("injected component panic"))
	defer disarm()
	_, err := ComputeParallel(gr, TDBPlusPlus, Options{K: 6}, 4)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err=%v, want a *PanicError", err)
	}
	disarm()
	r, err := ComputeParallel(gr, TDBPlusPlus, Options{K: 6}, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, gr, TDBPlusPlus, Options{K: 6}, r)
}

func TestEnginePanicQuarantinesScratch(t *testing.T) {
	gr := gen.ErdosRenyi(500, 2000, 17)
	e := NewEngine(gr)
	want, err := e.Compute(nil, TDBPlusPlus, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}

	// Panic out of Engine.Compute mid-solve: the borrowed runScratch must be
	// quarantined (never returned to the pool), and later engine runs must
	// still produce the exact same cover.
	disarm := fault.Arm("core/compute", panicOnce("injected engine panic"))
	defer disarm()
	func() {
		defer func() {
			if p := recover(); p == nil {
				t.Fatal("injected panic did not propagate out of Engine.Compute")
			}
		}()
		e.Compute(nil, TDBPlusPlus, Options{K: 6})
	}()
	disarm()

	for i := 0; i < 4; i++ {
		r, err := e.Compute(nil, TDBPlusPlus, Options{K: 6})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Cover) != len(want.Cover) {
			t.Fatalf("post-panic cover diverged: %d vs %d vertices", len(r.Cover), len(want.Cover))
		}
		for j := range r.Cover {
			if r.Cover[j] != want.Cover[j] {
				t.Fatalf("post-panic cover diverged at %d", j)
			}
		}
	}
}
