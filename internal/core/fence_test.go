package core

import (
	"math/rand"
	"reflect"
	"testing"

	"pmtest/internal/trace"
)

// fullScan is the reference the pending-range fence index and the epoch
// GC queue are checked against: the wrapped built-in model with clwb,
// fences and epoch GC implemented as a walk over the whole shadow memory
// (and clwb as extract and re-insert), the way they worked before the
// index existed. Every other op goes to the wrapped model.
type fullScan struct{ RuleSet }

func (r fullScan) Apply(s *State, op trace.Op) {
	fence := op.Kind == trace.KindFence || op.Kind == trace.KindDFence || op.Kind == trace.KindOFence
	x86, drain := false, false
	switch r.RuleSet.(type) {
	case X86, ARM:
		x86 = true
	case HOPS:
		drain = fence && op.Kind != trace.KindOFence
	case Epoch:
		drain = fence
	}
	switch {
	case x86 && op.Kind == trace.KindFlush:
		fullScanFlush(s, op)
	case x86 && fence:
		fullScanFence(s, true)
	case drain:
		fullScanFence(s, false)
	default:
		r.RuleSet.Apply(s, op)
	}
	// The reference never closes through the index.
	s.pending = s.pending[:0]
}

// fullScanFlush is x86Flush without the exact-bounds fast path.
func fullScanFlush(s *State, op trace.Op) {
	lo, hi := op.Addr, op.Addr+op.Size
	quiet := s.excluded(lo, hi)
	segs := s.Mem.ExtractOverlap(lo, hi)
	warned := false
	next := lo
	checkGap := func(gLo, gHi uint64) {
		if gLo < gHi && !warned && !quiet && !s.excluded(gLo, gHi) {
			s.report(SeverityWarn, CodeUnnecessaryWriteback, opSite(op), "",
				"writeback of never-written range [0x%x,0x%x)", gLo, gHi)
			warned = true
		}
	}
	for _, seg := range segs {
		checkGap(next, seg.Lo)
		next = seg.Hi
		st := seg.Val
		if !quiet && !s.excluded(seg.Lo, seg.Hi) {
			switch {
			case st.HasFI && !warned:
				s.report(SeverityWarn, CodeDuplicateWriteback, opSite(op), st.WriteSite,
					"range [0x%x,0x%x) already written back (flush interval %s)",
					seg.Lo, seg.Hi, st.FI)
				warned = true
			case !st.HasPI && !warned:
				s.report(SeverityWarn, CodeUnnecessaryWriteback, opSite(op), "",
					"writeback of unmodified range [0x%x,0x%x)", seg.Lo, seg.Hi)
				warned = true
			}
		}
		st.FI = EpochInterval{Start: s.T, End: Inf}
		st.HasFI = true
		s.Mem.Insert(seg.Lo, seg.Hi, st)
	}
	checkGap(next, hi)
	for _, g := range s.Mem.Gaps(lo, hi) {
		s.Mem.Insert(g.Lo, g.Hi, status{FI: EpochInterval{Start: s.T, End: Inf}, HasFI: true})
	}
}

// fullScanFence advances the epoch, closes every open flush interval (and
// its persist interval) when x86 is set or every open persist interval
// otherwise, samples the peak and runs epoch GC — each by walking every
// segment.
func fullScanFence(s *State, x86 bool) {
	s.T++
	s.Mem.VisitPtr(0, Inf, func(lo, hi uint64, st *status) {
		switch {
		case x86 && st.HasFI && st.FI.Open():
			st.FI.End = s.T
			if st.HasPI && st.PI.Open() {
				st.PI.End = s.T
			}
		case !x86 && st.HasPI && st.PI.Open():
			st.PI.End = s.T
		}
	})
	if n := s.Mem.Len(); n > s.peakIntervals {
		s.peakIntervals = n
	}
	if !s.gcOn || s.T < s.gcLag {
		return
	}
	horizon := s.T - s.gcLag
	var dead []addrRange
	s.Mem.VisitPtr(0, Inf, func(lo, hi uint64, st *status) {
		if st.HasPI && (st.PI.Open() || st.PI.End > horizon) {
			return
		}
		if st.HasFI && (st.FI.Open() || st.FI.End > horizon) {
			return
		}
		dead = append(dead, addrRange{lo, hi})
	})
	for _, g := range dead {
		s.Mem.Delete(g.lo, g.hi)
	}
	s.gcRetired += uint64(len(dead))
}

// fenceOps decodes a byte string into an operation soup for the fence
// index oracle, two bytes per op: a kind and a target. Targets favour a
// few fixed, partly overlapping objects, so clwbs repeat the exact bounds
// of a write (the in-place path) as well as cutting across segments (the
// split path); the rest are arbitrary small ranges.
func fenceOps(data []byte) []trace.Op {
	objs := [...]struct{ addr, size uint64 }{
		{0, 64}, {64, 64}, {128, 8}, {136, 24}, {160, 256}, {32, 64}, {0, 512}, {600, 40},
	}
	var ops []trace.Op
	for i := 0; i+1 < len(data) && len(ops) < 400; i += 2 {
		k, x := data[i], data[i+1]
		o := objs[x%8]
		if x >= 192 {
			o.addr, o.size = uint64(x)*7%700, uint64(x%61)+1
		}
		op := trace.Op{Addr: o.addr, Size: o.size, File: "soup.go", Line: len(ops)}
		switch k % 16 {
		case 0, 1, 2, 3:
			op.Kind = trace.KindWrite
		case 4:
			op.Kind = trace.KindWriteNT
		case 5, 6, 7:
			op.Kind = trace.KindFlush
		case 8:
			op.Kind = trace.KindFence
		case 9:
			op.Kind = trace.KindOFence
		case 10:
			op.Kind = trace.KindDFence
		case 11:
			op.Kind = trace.KindIsPersist
		case 12:
			o2 := objs[(x/8)%8]
			op.Kind, op.Addr2, op.Size2 = trace.KindIsOrderedBefore, o2.addr, o2.size
		case 13:
			op.Kind = [...]trace.Kind{trace.KindTxBegin, trace.KindTxEnd}[x%2]
		case 14:
			op.Kind = [...]trace.Kind{trace.KindTxAdd, trace.KindTxCheckerStart, trace.KindTxCheckerEnd}[x%3]
		case 15:
			op.Kind = [...]trace.Kind{trace.KindExclude, trace.KindInclude}[x%2]
		}
		ops = append(ops, op)
	}
	return ops
}

// diffFenceIndex replays ops on the real rules and on the full-scan
// reference under every built-in model, with GC off and on at lags 0-3,
// and fails on the first op after which the shadow memory, diagnostics,
// GC retirements or peak interval count differ.
func diffFenceIndex(t *testing.T, ops []trace.Op) {
	t.Helper()
	type gc struct {
		on  bool
		lag uint64
	}
	gcs := []gc{{false, 0}, {true, 0}, {true, 1}, {true, 2}, {true, 3}}
	for _, rules := range []RuleSet{X86{}, ARM{}, HOPS{}, Epoch{}} {
		for _, g := range gcs {
			got, want := NewState(), NewState()
			for _, s := range []*State{got, want} {
				s.gcOn, s.gcLag = g.on, g.lag
			}
			ref := fullScan{rules}
			for i, op := range ops {
				got.opIndex, want.opIndex = i, i
				rules.Apply(got, op)
				ref.Apply(want, op)
				if !reflect.DeepEqual(got.Shadow(), want.Shadow()) ||
					!reflect.DeepEqual(got.diags, want.diags) ||
					got.gcRetired != want.gcRetired || got.peakIntervals != want.peakIntervals {
					t.Fatalf("%s gc=%v lag=%d: op %d (%v) diverges from the full scan\n"+
						"shadow:  %+v\nwant:    %+v\ndiags:   %v\nwant:    %v\n"+
						"retired %d want %d, peak %d want %d",
						rules.Name(), g.on, g.lag, i, op.Kind,
						got.Shadow(), want.Shadow(), got.diags, want.diags,
						got.gcRetired, want.gcRetired, got.peakIntervals, want.peakIntervals)
				}
			}
		}
	}
}

// TestFenceIndexMatchesFullScan: closing fences through the pending-range
// index, retiring from the epoch-ordered GC queue and updating exact
// clwb bounds in place must leave exactly the state the whole-memory
// scans leave, after every op of a few hundred seeded soups.
func TestFenceIndexMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 250; n++ {
		data := make([]byte, 2*(10+rng.Intn(70)))
		rng.Read(data)
		diffFenceIndex(t, fenceOps(data))
	}
}

// FuzzFenceIndex is TestFenceIndexMatchesFullScan over fuzzed soups.
func FuzzFenceIndex(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 8, 0, 11, 0})          // write, clwb, sfence, isPersist
	f.Add([]byte{4, 1, 0, 6, 5, 6, 10, 0, 8, 0})    // nt store, overlapping clwb, fences
	f.Add([]byte{0, 4, 9, 0, 9, 0, 10, 0, 10, 0})   // ofence keeps writes pending
	f.Add([]byte{14, 1, 13, 0, 14, 0, 0, 2, 14, 2}) // checked tx
	f.Fuzz(func(t *testing.T, data []byte) {
		diffFenceIndex(t, fenceOps(data))
	})
}

// TestFenceScannedIndependentOfLiveSegments pins fence cost to what the
// fences touch: after 10k never-flushed writes stay live in the shadow
// memory, 1k write+clwb+sfence triples visit a few segments each, where a
// walk over the whole shadow memory would visit ~10M.
func TestFenceScannedIndependentOfLiveSegments(t *testing.T) {
	const live, triples = 10000, 1000
	var ops []trace.Op
	for i := 0; i < live; i++ {
		ops = append(ops, trace.Op{Kind: trace.KindWrite, Addr: uint64(i) * 64, Size: 64})
	}
	for i := 0; i < triples; i++ {
		a := uint64(live+i) * 64
		ops = append(ops,
			trace.Op{Kind: trace.KindWrite, Addr: a, Size: 64},
			trace.Op{Kind: trace.KindFlush, Addr: a, Size: 64},
			trace.Op{Kind: trace.KindFence})
	}
	tr := &trace.Trace{Ops: ops}
	for _, cfg := range []Config{{}, {EpochGC: true}, {Shards: 4, EpochGC: true, chunkBits: 8}} {
		_, stats := checkOnce(X86{}, tr, nil, cfg)
		if stats.PeakIntervals < live {
			t.Fatalf("%+v: peak %d intervals, want >= %d live", cfg, stats.PeakIntervals, live)
		}
		t.Logf("%+v: fences visited %d segments, %d live", cfg, stats.FenceScanned, stats.PeakIntervals)
		if stats.FenceScanned == 0 || stats.FenceScanned > 4*triples {
			t.Fatalf("%+v: fences visited %d segments, want (0, %d]", cfg, stats.FenceScanned, 4*triples)
		}
	}
}
