package core

import (
	"sync"
	"testing"
	"time"

	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

func obsTxOps(writes int) []trace.Op {
	ops := []trace.Op{{Kind: trace.KindTxCheckerStart}, {Kind: trace.KindTxBegin}}
	for i := 0; i < writes; i++ {
		addr := uint64(0x1000 + i*64)
		ops = append(ops,
			trace.Op{Kind: trace.KindTxAdd, Addr: addr, Size: 64},
			trace.Op{Kind: trace.KindWrite, Addr: addr, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: addr, Size: 64})
	}
	return append(ops, trace.Op{Kind: trace.KindFence},
		trace.Op{Kind: trace.KindTxEnd}, trace.Op{Kind: trace.KindTxCheckerEnd})
}

func TestEngineObserverLifecycle(t *testing.T) {
	m := obs.NewMetrics(16)
	e := NewEngine(Options{Workers: 2, Observer: m})
	const traces = 10
	ops := obsTxOps(8)
	for i := 0; i < traces; i++ {
		e.Submit(&trace.Trace{Thread: i % 3, Ops: ops})
	}
	e.Close()

	s := m.Snapshot()
	if s.TracesSubmitted != traces || s.TracesDequeued != traces || s.TracesChecked != traces {
		t.Fatalf("lifecycle counts = %d/%d/%d, want %d each",
			s.TracesSubmitted, s.TracesDequeued, s.TracesChecked, traces)
	}
	wantOps := uint64(traces * len(ops))
	if s.OpsSubmitted != wantOps || s.OpsChecked != wantOps {
		t.Fatalf("op counts = %d/%d, want %d", s.OpsSubmitted, s.OpsChecked, wantOps)
	}
	if s.QueueWait.Count != traces || s.CheckDur.Count != traces {
		t.Fatalf("histogram counts = %d/%d, want %d", s.QueueWait.Count, s.CheckDur.Count, traces)
	}
	if s.CheckDur.P50 <= 0 {
		t.Fatalf("check p50 = %v, want > 0", s.CheckDur.P50)
	}
	// Round-robin dispatch over two workers must touch both.
	total := uint64(0)
	for _, n := range s.PerWorkerChecked {
		total += n
	}
	if total != traces || len(s.PerWorkerChecked) != 2 ||
		s.PerWorkerChecked[0] == 0 || s.PerWorkerChecked[1] == 0 {
		t.Fatalf("per-worker counts = %v, want both non-zero summing to %d",
			s.PerWorkerChecked, traces)
	}
	if len(s.RecentTraces) == 0 || s.RecentTraces[0].Ops != len(ops) {
		t.Fatalf("recent trace ring empty or wrong: %+v", s.RecentTraces)
	}
}

func TestEngineObserverDiagCounts(t *testing.T) {
	m := obs.NewMetrics(4)
	e := NewEngine(Options{Observer: m})
	// A write that is never flushed plus an isPersist checker → one FAIL
	// with code not-persisted.
	e.Submit(&trace.Trace{Ops: []trace.Op{
		{Kind: trace.KindWrite, Addr: 0x10, Size: 64},
		{Kind: trace.KindIsPersist, Addr: 0x10, Size: 64},
	}})
	reports := e.Close()
	if len(reports) != 1 || reports[0].Fails() != 1 {
		t.Fatalf("expected one FAIL report, got %+v", reports)
	}
	s := m.Snapshot()
	if s.DiagsBySeverity["FAIL"] != 1 {
		t.Fatalf("severity tally = %v, want FAIL:1", s.DiagsBySeverity)
	}
	if s.DiagsByCode[string(CodeNotPersisted)] != 1 {
		t.Fatalf("code tally = %v, want %s:1", s.DiagsByCode, CodeNotPersisted)
	}
	ev := s.RecentTraces[0]
	if ev.Fails != 1 || ev.Codes[string(CodeNotPersisted)] != 1 || ev.TrackedOps != 1 {
		t.Fatalf("trace event wrong: %+v", ev)
	}
}

// TestEngineBackpressureStall forces Submit to block on a full
// single-slot queue and verifies the stall is observed.
func TestEngineBackpressureStall(t *testing.T) {
	m := obs.NewMetrics(4)
	e := NewEngine(Options{Workers: 1, QueueDepth: 1, Observer: m})
	// Large traces keep the single worker busy long enough for the
	// producer to overrun the one-slot queue.
	ops := obsTxOps(2000)
	for i := 0; i < 16; i++ {
		e.Submit(&trace.Trace{Ops: ops})
	}
	e.Close()
	s := m.Snapshot()
	if s.BackpressureStalls == 0 || s.BackpressureStall <= 0 {
		t.Fatalf("expected backpressure stalls, got %d (%v)",
			s.BackpressureStalls, s.BackpressureStall)
	}
}

func TestEngineQueueDepths(t *testing.T) {
	e := NewEngine(Options{Workers: 3})
	defer e.Close()
	d := e.QueueDepths()
	if len(d) != 3 {
		t.Fatalf("QueueDepths len = %d, want 3", len(d))
	}
	for i, v := range d {
		if v != 0 {
			t.Fatalf("idle queue %d depth = %d, want 0", i, v)
		}
	}
}

// TestEngineNoObserverUnchanged: with no observer the engine must behave
// exactly as before (and take no timestamps — verified by the benchmark
// suite staying within noise of the seed).
func TestEngineNoObserverUnchanged(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	for i := 0; i < 5; i++ {
		e.Submit(&trace.Trace{Ops: obsTxOps(4)})
	}
	reports := e.Close()
	if len(reports) != 5 {
		t.Fatalf("got %d reports, want 5", len(reports))
	}
	for _, r := range reports {
		if !r.Clean() {
			t.Fatalf("clean trace flagged: %s", r.Summary())
		}
	}
}

// TestEngineConcurrentSubmitWait is the regression test for mixing
// Submit, Wait and report reads from concurrent goroutines (the
// GetResult path): the seed's sync.WaitGroup-based pending counter was
// vulnerable to "Add called concurrently with Wait" misuse; the engine
// now serializes the counters under its mutex. Run under -race.
func TestEngineConcurrentSubmitWait(t *testing.T) {
	e := NewEngine(Options{Workers: 4, QueueDepth: 8})
	ops := obsTxOps(16)
	const producers = 4
	const perProducer = 50

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				e.Submit(&trace.Trace{Ops: ops})
			}
		}()
	}
	// Concurrent waiters polling results while producers are still
	// submitting (PMTest_GET_RESULT from a monitoring thread).
	stop := make(chan struct{})
	var waiters sync.WaitGroup
	for w := 0; w < 2; w++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				reports := e.Wait()
				for _, r := range reports {
					if r.Ops != len(ops) {
						t.Errorf("report ops = %d, want %d", r.Ops, len(ops))
						return
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	waiters.Wait()
	reports := e.Close()
	if len(reports) != producers*perProducer {
		t.Fatalf("got %d reports, want %d", len(reports), producers*perProducer)
	}
	// IDs must be unique and dense.
	seen := make(map[int]bool, len(reports))
	for _, r := range reports {
		if seen[r.TraceID] {
			t.Fatalf("duplicate trace id %d", r.TraceID)
		}
		seen[r.TraceID] = true
	}
}

// TestTrackOnlyReportsTrackedOps: TrackOnly runs must carry the
// non-checker op count so framework-overhead measurements have real
// data (Fig. 10b).
func TestTrackOnlyReportsTrackedOps(t *testing.T) {
	ops := []trace.Op{
		{Kind: trace.KindTxCheckerStart}, // checker
		{Kind: trace.KindWrite, Addr: 0x10, Size: 64},
		{Kind: trace.KindFlush, Addr: 0x10, Size: 64},
		{Kind: trace.KindFence},
		{Kind: trace.KindIsPersist, Addr: 0x10, Size: 64}, // checker
		{Kind: trace.KindTxCheckerEnd},                    // checker
	}
	e := NewEngine(Options{Check: Config{TrackOnly: true}})
	e.Submit(&trace.Trace{Ops: ops})
	reports := e.Close()
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	r := reports[0]
	if r.Ops != 6 || r.TrackedOps != 3 {
		t.Fatalf("Ops/TrackedOps = %d/%d, want 6/3", r.Ops, r.TrackedOps)
	}
	if len(r.Diags) != 0 {
		t.Fatalf("track-only run produced diagnostics: %+v", r.Diags)
	}
	// Full checking reports the same tracked-op count.
	full := CheckTrace(X86{}, &trace.Trace{Ops: ops})
	if full.TrackedOps != 3 {
		t.Fatalf("checked TrackedOps = %d, want 3", full.TrackedOps)
	}
}

// TestEngineShadowGaugeIsPeakIntervals: the ShadowIntervalsLive gauge
// an engine publishes is the checker's CheckStats.PeakIntervals for the
// same trace (static exclusions do not count), and a worker's warm
// checker counts as a state hit, so the hit rate stays meaningful.
func TestEngineShadowGaugeIsPeakIntervals(t *testing.T) {
	ops := obsTxOps(8)
	excludes := []Range{{Addr: 0x100000, Size: 64}}
	_, want := checkOnce(X86{}, &trace.Trace{Ops: ops}, excludes, Config{})
	if want.PeakIntervals == 0 {
		t.Fatal("offline check saw no shadow intervals")
	}
	before := ResourceStats()
	e := NewEngine(Options{StaticExcludes: excludes})
	e.Submit(&trace.Trace{Ops: ops})
	e.Wait()
	if got := ResourceStats().ShadowIntervalsLive; got != uint64(want.PeakIntervals) {
		t.Fatalf("ShadowIntervalsLive = %d, want offline PeakIntervals %d", got, want.PeakIntervals)
	}
	for i := 0; i < 9; i++ {
		e.Submit(&trace.Trace{Ops: ops})
	}
	e.Close()
	after := ResourceStats()
	gets := after.StatePoolGets - before.StatePoolGets
	misses := after.StatePoolMisses - before.StatePoolMisses
	if gets != 10 || misses != 1 {
		t.Fatalf("state gets/misses = %d/%d over 10 traces on one worker, want 10/1", gets, misses)
	}
}

func TestSharingAnalyzerMetrics(t *testing.T) {
	m := obs.NewMetrics(4)
	a := NewSharingAnalyzer(nil)
	a.SetMetrics(m)
	a.Feed(&trace.Trace{Thread: 0, Ops: []trace.Op{
		{Kind: trace.KindWrite, Addr: 0x100, Size: 64},
		{Kind: trace.KindFlush, Addr: 0x100, Size: 64}, // not a write
	}})
	a.Feed(&trace.Trace{Thread: 1, Ops: []trace.Op{
		{Kind: trace.KindWrite, Addr: 0x120, Size: 64},
	}})
	if got := m.SharingTracesFed.Load(); got != 2 {
		t.Fatalf("traces fed = %d, want 2", got)
	}
	if got := m.SharingWritesTracked.Load(); got != 2 {
		t.Fatalf("writes tracked = %d, want 2", got)
	}
	if shared := a.Shared(); len(shared) != 1 {
		t.Fatalf("shared ranges = %+v, want one overlap", shared)
	}
}
