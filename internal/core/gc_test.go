package core

import (
	"testing"

	"pmtest/internal/trace"
)

// gcState returns a fresh state with epoch GC on at the given lag.
func gcState(lag uint64) *State {
	s := NewState()
	s.gcOn = true
	s.gcLag = lag
	return s
}

func apply(s *State, rules RuleSet, ops ...trace.Op) {
	for i, op := range ops {
		s.opIndex = i
		rules.Apply(s, op)
	}
}

// TestGCNeverRetiresOpenInterval: a write that was never fenced keeps an
// open persist interval; no number of later fences may retire it — it is
// exactly what a future isPersist must still be able to fail on.
func TestGCNeverRetiresOpenInterval(t *testing.T) {
	s := gcState(2)
	ops := []trace.Op{{Kind: trace.KindWrite, Addr: 0x100, Size: 64}} // never flushed
	for i := 0; i < 10; i++ {
		ops = append(ops, trace.Op{Kind: trace.KindFence})
	}
	apply(s, X86{}, ops...)
	if s.gcRetired != 0 {
		t.Fatalf("GC retired %d segments; the only segment has an open persist interval", s.gcRetired)
	}
	if s.Mem.Len() != 1 {
		t.Fatalf("open-interval segment vanished: Mem.Len() = %d", s.Mem.Len())
	}
	// The checker must still catch the bug after all those epochs.
	s.opIndex = len(ops)
	X86{}.Apply(s, trace.Op{Kind: trace.KindIsPersist, Addr: 0x100, Size: 64})
	if len(s.diags) != 1 || s.diags[0].Code != CodeNotPersisted {
		t.Fatalf("isPersist after GC passes: diags = %v", s.diags)
	}
}

// TestGCNeverRetiresLiveEpoch: an interval that closed fewer than GCLag
// epochs ago must survive — a checker in the current epoch may still
// reference it.
func TestGCNeverRetiresLiveEpoch(t *testing.T) {
	s := gcState(2)
	apply(s, X86{},
		trace.Op{Kind: trace.KindWrite, Addr: 0x100, Size: 64},
		trace.Op{Kind: trace.KindFlush, Addr: 0x100, Size: 64},
		trace.Op{Kind: trace.KindFence}, // closes PI/FI at epoch 1
		trace.Op{Kind: trace.KindFence}, // epoch 2: horizon 0 < 1, keep
	)
	if s.Mem.Len() != 1 || s.gcRetired != 0 {
		t.Fatalf("segment closed within GC lag was retired: len=%d retired=%d", s.Mem.Len(), s.gcRetired)
	}
	// One more epoch ages it past the lag; now it may go.
	apply(s, X86{}, trace.Op{Kind: trace.KindFence}) // epoch 3: horizon 1 >= End 1
	if s.Mem.Len() != 0 || s.gcRetired != 1 {
		t.Fatalf("aged-out segment not retired: len=%d retired=%d", s.Mem.Len(), s.gcRetired)
	}
}

// TestGCHalfOpenSegmentSurvives: a segment whose flush interval closed
// but whose persist interval is still open (or vice versa) is live by
// definition.
func TestGCHalfOpenSegmentSurvives(t *testing.T) {
	s := gcState(1)
	// HOPS: ofence advances the epoch without closing persist intervals.
	apply(s, HOPS{},
		trace.Op{Kind: trace.KindWrite, Addr: 0x100, Size: 64},
		trace.Op{Kind: trace.KindOFence},
		trace.Op{Kind: trace.KindOFence},
		trace.Op{Kind: trace.KindOFence},
		// dfence drains: now closed at epoch 4...
		trace.Op{Kind: trace.KindDFence},
	)
	if s.Mem.Len() != 1 {
		t.Fatalf("open segment retired early: len=%d", s.Mem.Len())
	}
	// ...and two more drains age it out under lag 1.
	apply(s, HOPS{}, trace.Op{Kind: trace.KindDFence}, trace.Op{Kind: trace.KindDFence})
	if s.Mem.Len() != 0 || s.gcRetired != 1 {
		t.Fatalf("closed segment survived GC: len=%d retired=%d", s.Mem.Len(), s.gcRetired)
	}
}

// TestGCBoundsStreamingMemory is the tentpole property: over a long
// streaming trace with a rotating working set, live shadow intervals
// stay near the working-set size instead of growing with the trace.
func TestGCBoundsStreamingMemory(t *testing.T) {
	const rounds, window = 400, 8
	var ops []trace.Op
	for r := 0; r < rounds; r++ {
		for w := 0; w < window; w++ {
			a := uint64(r*window+w) * 64
			ops = append(ops,
				trace.Op{Kind: trace.KindWrite, Addr: a, Size: 64},
				trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64})
		}
		ops = append(ops, trace.Op{Kind: trace.KindFence})
	}
	tr := &trace.Trace{Ops: ops}

	noGC, statsOff := checkOnce(X86{}, tr, nil, Config{Shards: 1})
	withGC, statsOn := checkOnce(X86{}, tr, nil, Config{Shards: 1, EpochGC: true})
	if !noGC.Clean() || !withGC.Clean() {
		t.Fatalf("streaming trace flagged: gc-off clean=%v gc-on clean=%v", noGC.Clean(), withGC.Clean())
	}
	if statsOff.PeakIntervals < rounds*window/2 {
		t.Fatalf("without GC expected ~%d live intervals, got %d", rounds*window, statsOff.PeakIntervals)
	}
	// With GC the peak is the working set plus the GC lag's worth of
	// closed epochs — far below the whole trace footprint.
	bound := window * 4
	if statsOn.PeakIntervals > bound {
		t.Fatalf("GC peak %d exceeds bound %d (working set %d)", statsOn.PeakIntervals, bound, window)
	}
	if statsOn.RetiredIntervals == 0 {
		t.Fatal("GC retired nothing over a 400-round streaming trace")
	}
}

// TestGCShardedEquivalenceStreaming: the same streaming shape must be
// clean and report-identical under shards=4 with GC, and each stripe's
// peak must stay bounded.
func TestGCShardedEquivalenceStreaming(t *testing.T) {
	const rounds, window = 200, 8
	var ops []trace.Op
	for r := 0; r < rounds; r++ {
		for w := 0; w < window; w++ {
			a := uint64(r*window+w) * 4096 // one line per 4 KiB chunk, striped
			ops = append(ops,
				trace.Op{Kind: trace.KindWrite, Addr: a, Size: 64},
				trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64})
		}
		ops = append(ops, trace.Op{Kind: trace.KindFence})
	}
	tr := &trace.Trace{Ops: ops}
	want := renderReport(CheckTrace(X86{}, tr))
	rep, stats := checkOnce(X86{}, tr, nil, Config{Shards: 4, EpochGC: true})
	if got := renderReport(rep); got != want {
		t.Fatalf("sharded+GC streaming diverges\n--- serial ---\n%s--- sharded ---\n%s", want, got)
	}
	if !stats.Sharded {
		t.Fatal("streaming trace fell back to serial")
	}
	if bound := window * 4; stats.PeakIntervals > bound {
		t.Fatalf("sharded GC peak %d exceeds bound %d", stats.PeakIntervals, bound)
	}
	if stats.RetiredIntervals == 0 {
		t.Fatal("sharded GC retired nothing")
	}
}
