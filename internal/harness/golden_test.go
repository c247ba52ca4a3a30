package harness

// Golden-equivalence tests for the pooled checking state: CheckTrace
// draws a checker from a sync.Pool, whose State is Reset between traces,
// so a Reset bug would leak shadow-memory, epoch, or transaction state
// from one trace into the next and silently change verdicts. These tests
// prove pooled runs produce byte-identical Reports to fresh-state runs
// across the whisper micro suite and across bad-trace fixtures modeled
// on the faultinject taxonomy (dropped writebacks/fences, weakened
// fences, delayed writebacks).

import (
	"fmt"
	"testing"

	"pmtest/internal/core"
	"pmtest/internal/trace"
)

// reportString renders a Report with every field, diagnostics included,
// so equality means byte-identical output to the user.
func reportString(r core.Report) string {
	s := fmt.Sprintf("trace=%d thread=%d ops=%d tracked=%d ndiags=%d\n",
		r.TraceID, r.Thread, r.Ops, r.TrackedOps, len(r.Diags))
	for _, d := range r.Diags {
		s += fmt.Sprintf("%d|%s|%s\n", d.OpIndex, d.Severity, d.String())
	}
	return s
}

// checkOnce checks tr on a newly built checker whose State has never
// checked another trace.
func checkOnce(rules core.RuleSet, tr *trace.Trace, cfg core.Config) (core.Report, core.CheckStats) {
	c := core.NewShardedChecker(rules, cfg)
	defer c.Close()
	return c.Check(tr, nil)
}

// freshReport is the serial checkOnce report.
func freshReport(rules core.RuleSet, tr *trace.Trace) core.Report {
	rep, _ := checkOnce(rules, tr, core.Config{})
	return rep
}

// checkBothWays checks tr with a fresh, never-pooled State and with the
// pooled CheckTrace path, after deliberately dirtying the pool with a
// state-heavy trace, and fails on any report difference.
func checkBothWays(t *testing.T, name string, rules core.RuleSet, tr *trace.Trace) {
	t.Helper()
	// Dirty the pool: a trace that leaves open intervals, tx depth,
	// exclusions and an unbalanced checker scope behind.
	dirty := &trace.Trace{Ops: []trace.Op{
		{Kind: trace.KindTxCheckerStart},
		{Kind: trace.KindTxBegin},
		{Kind: trace.KindWrite, Addr: 0x40, Size: 512},
		{Kind: trace.KindFlush, Addr: 0x40, Size: 64},
		{Kind: trace.KindFence},
		{Kind: trace.KindExclude, Addr: 0, Size: 1 << 30},
	}}
	core.CheckTrace(rules, dirty)

	fresh := freshReport(rules, tr)
	pooled := core.CheckTrace(rules, tr)
	if got, want := reportString(pooled), reportString(fresh); got != want {
		t.Errorf("%s [%s]: pooled report differs from fresh-state report\nfresh:\n%s\npooled:\n%s",
			name, rules.Name(), want, got)
	}
}

// TestPooledStateGoldenWhisper: every micro store's recorded checkered
// sections produce identical reports pooled vs fresh, under both the
// strict and the relaxed model.
func TestPooledStateGoldenWhisper(t *testing.T) {
	for _, store := range MicroStores {
		sections, err := RecordMicroSections(store, 256, 60)
		if err != nil {
			t.Fatalf("%s: %v", store, err)
		}
		for _, rules := range []core.RuleSet{core.X86{}, core.HOPS{}} {
			// Per-insert sections plus the monolithic whole-run trace.
			var all []trace.Op
			for i, ops := range sections {
				all = append(all, ops...)
				if i%7 == 0 { // spot-check sections; all of them is slow
					checkBothWays(t, fmt.Sprintf("%s/section%d", store, i), rules,
						&trace.Trace{Ops: ops})
				}
			}
			checkBothWays(t, store+"/monolithic", rules, &trace.Trace{Ops: all})
		}
	}
}

// badTraceFixtures perturbs a clean recorded stream the way the
// faultinject campaign's bug classes do, yielding sections the engine
// must diagnose — exercising the report-building (diags) path of the
// pooled state. Recorded sections open with an Exclude over allocator
// metadata, so perturbations must land on flushes of the transaction's
// own (non-excluded) data or they are no-ops to the checker.
func badTraceFixtures(sections [][]trace.Op) map[string]*trace.Trace {
	fix := make(map[string]*trace.Trace)
	isFence := func(k trace.Kind) bool { return k == trace.KindFence || k == trace.KindDFence }
	// tracked reports whether op touches memory the section has not
	// excluded by the time the op executes.
	trackedFlush := func(ops []trace.Op, i int) bool {
		if ops[i].Kind != trace.KindFlush {
			return false
		}
		for j := 0; j < i; j++ {
			e := ops[j]
			if e.Kind == trace.KindExclude &&
				e.Addr <= ops[i].Addr && ops[i].Addr+ops[i].Size <= e.Addr+e.Size {
				return false
			}
		}
		return true
	}
	lastTrackedFlush := func(ops []trace.Op) int {
		for i := len(ops) - 1; i >= 0; i-- {
			if trackedFlush(ops, i) {
				return i
			}
		}
		return -1
	}
	pick := func(name string, f func(ops []trace.Op) []trace.Op) {
		// Perturb a mid-run section so the store is warm.
		src := sections[3%len(sections)]
		ops := append([]trace.Op(nil), src...)
		fix[name] = &trace.Trace{Ops: f(ops)}
	}
	pick("drop-flush", func(ops []trace.Op) []trace.Op {
		// Drop the last tracked flush: that line is never written back,
		// so the tx checker flags it unpersisted at TX_CHECKER_END.
		i := lastTrackedFlush(ops)
		return append(ops[:i], ops[i+1:]...)
	})
	pick("drop-fence", func(ops []trace.Op) []trace.Op {
		// Drop every fence after the last tracked flush: the writeback is
		// issued but never completed. (A single dropped fence would be
		// masked by the next one — fences drain all pending flushes.)
		i := lastTrackedFlush(ops)
		out := append([]trace.Op(nil), ops[:i+1]...)
		for _, op := range ops[i+1:] {
			if !isFence(op.Kind) {
				out = append(out, op)
			}
		}
		return out
	})
	pick("weaken-fence", func(ops []trace.Op) []trace.Op {
		// Drop the whole run of tracked flushes ending at the last one:
		// the closing fence has nothing of the transaction's to drain.
		end := lastTrackedFlush(ops)
		start := end
		for start > 0 && trackedFlush(ops, start-1) {
			start--
		}
		return append(ops[:start], ops[end+1:]...)
	})
	pick("delay-flush", func(ops []trace.Op) []trace.Op {
		// Move the last tracked flush past every remaining fence: the
		// writeback lands on the wrong side of the ordering points and is
		// still pending at TX_CHECKER_END.
		i := lastTrackedFlush(ops)
		cp := ops[i]
		ops = append(ops[:i], ops[i+1:]...)
		last := len(ops)
		for j := len(ops) - 1; j >= 0; j-- {
			if isFence(ops[j].Kind) {
				last = j + 1
				break
			}
		}
		out := append([]trace.Op(nil), ops[:last]...)
		out = append(out, cp)
		return append(out, ops[last:]...)
	})
	return fix
}

// TestPooledStateGoldenBadTraces: faulted fixtures — which produce FAIL
// and WARN diagnostics — report identically pooled vs fresh.
func TestPooledStateGoldenBadTraces(t *testing.T) {
	for _, store := range []string{"ctree", "hashmap-ll"} {
		sections, err := RecordMicroSections(store, 256, 12)
		if err != nil {
			t.Fatalf("%s: %v", store, err)
		}
		for name, tr := range badTraceFixtures(sections) {
			if freshReport(core.X86{}, tr).Clean() {
				t.Errorf("%s/%s: fixture produced no diagnostics; perturbation is a no-op", store, name)
			}
			checkBothWays(t, store+"/"+name, core.X86{}, tr)
		}
	}
}
