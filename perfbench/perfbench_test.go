package main

import (
	"io"
	"os/exec"
	"path/filepath"
	"testing"
)

// tiny shrinks a workload to test size, keeping its shape.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.preload = 500
	switch {
	case w.stream:
		w.ops = w.txPerSection * 4
	case w.remote:
		w.ops = 1000
	default:
		w.ops = 3000
	}
	return w
}

func metricsOf(res *result) map[string]float64 {
	m := map[string]float64{}
	for _, x := range res.metrics {
		m[x.name] = x.value
	}
	return m
}

// deterministic are the counts a traced run must repeat exactly for a
// fixed seed: they depend on the input only, never on timing.
var deterministic = []string{
	"program.trace_ops", "program.sections", "codec.bytes_per_op",
	"shadow.peak_intervals", "shadow.gc_retired",
}

func TestDeterministicCounts(t *testing.T) {
	for _, name := range []string{"kv_tx", "ctree_stream"} {
		t.Run(name, func(t *testing.T) {
			w := tiny(t, name)
			var first map[string]float64
			for run := 0; run < 2; run++ {
				res, err := bench(runConfig{w: w, seed: 7, seconds: 1, traced: true}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 {
					t.Fatalf("run %d: correct=%v failed=%d notes=%v", run, res.correct, res.failed, res.notes)
				}
				got := metricsOf(res)
				if run == 0 {
					first = got
					continue
				}
				for _, k := range deterministic {
					if got[k] != first[k] {
						t.Errorf("%s: %v, then %v", k, first[k], got[k])
					}
				}
			}
			if first["program.trace_ops"] == 0 || first["program.sections"] == 0 || first["codec.bytes_per_op"] == 0 {
				t.Errorf("empty run: %v", first)
			}
			if w.check.EpochGC && first["shadow.gc_retired"] == 0 {
				t.Errorf("EpochGC workload retired no intervals")
			}
		})
	}
}

func TestSeedChangesInput(t *testing.T) {
	w := tiny(t, "kv_tx")
	a, b := genInput(w, 1), genInput(w, 2)
	same := 0
	for i := range a.ops {
		if a.ops[i] == b.ops[i] {
			same++
		}
	}
	if same == len(a.ops) {
		t.Fatal("seeds 1 and 2 generated the same ops")
	}
}

// TestProbeCatchesSilentChecker pins the gate's probe: under full
// checking every probe section carries its finding and matches the
// reference, while a checker that applies no rules (TrackOnly) fails
// every section, although it passes the workload's own clean sections.
func TestProbeCatchesSilentChecker(t *testing.T) {
	for _, name := range []string{"kv_tx", "ctree_stream"} {
		t.Run(name, func(t *testing.T) {
			b, err := newBencher(runConfig{w: tiny(t, name), seed: 5, seconds: 1})
			if err != nil {
				t.Fatal(err)
			}
			sections := len(b.probeRef.digests)
			if sections < 2 || b.probeRef.failed != 0 {
				t.Fatalf("probe: %d sections, %d failed in its reference", sections, b.probeRef.failed)
			}
			if bad, err := b.probe(modeFull, nil); err != nil || bad != 0 {
				t.Fatalf("full checking: %d of %d probe sections failed (err %v)", bad, sections, err)
			}
			if bad, err := b.probe(modeTrack, nil); err != nil || bad != sections {
				t.Fatalf("track-only: %d of %d probe sections failed, want all (err %v)", bad, sections, err)
			}
		})
	}
}

// TestRemoteEqualsLocal checks that remote_tx's reports are the prefix of
// kv_tx's: both are held to digests of the same serial replay, and the
// remote input is a prefix of the local one.
func TestRemoteEqualsLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pmtestd")
	}
	bin := filepath.Join(t.TempDir(), "pmtestd")
	if out, err := exec.Command("go", "build", "-o", bin, "pmtest/cmd/pmtestd").CombinedOutput(); err != nil {
		t.Fatalf("build pmtestd: %v\n%s", err, out)
	}
	local, remote := tiny(t, "kv_tx"), tiny(t, "remote_tx")
	lin, rin := genInput(local, 3), genInput(remote, 3)
	if len(rin.ops) >= len(lin.ops) {
		t.Fatalf("remote input has %d ops, kv_tx's %d", len(rin.ops), len(lin.ops))
	}
	for i := range rin.ops {
		if rin.ops[i].key != lin.ops[i].key || rin.ops[i].val != lin.ops[i].val || rin.ops[i].write != lin.ops[i].write {
			t.Fatalf("op %d differs between kv_tx and remote_tx inputs", i)
		}
	}
	lref, err := runReference(local, lin, false)
	if err != nil {
		t.Fatal(err)
	}
	rref, err := runReference(remote, rin, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range rref.digests {
		if lref.digests[i] != d {
			t.Fatalf("section %d: reference digests differ", i)
		}
	}
	res, err := bench(runConfig{w: remote, seed: 3, seconds: 1, traced: true, pmtestd: bin}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct {
		t.Fatalf("remote run failed %d of %d ops: %v", res.failed, res.attempted, res.notes)
	}
	if m := metricsOf(res); m["dist.rtt_p50_us"] <= 0 || m["dist.fallbacks"] != 0 {
		t.Errorf("remote run: rtt p50 %v us, %v fallbacks", m["dist.rtt_p50_us"], m["dist.fallbacks"])
	}
}
