package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pmtest/internal/core"
	"pmtest/internal/obs"
)

// pass is one timed execution of the program over the whole input.
type pass int

const (
	passNative pass = iota
	passTrack
	passFull
	passTraced // full checking with the benchmark's spans and the program's hooks on
)

// minRounds is the fewest rounds a run makes however long they take, so
// every aggregate has at least this many samples.
const minRounds = 3

// maxRounds caps the rounds of a run on a fast machine.
const maxRounds = 200

// maxNativeReps caps the native passes of one round.
const maxNativeReps = 4

// runConfig is one benchmark invocation.
type runConfig struct {
	w       workload
	seed    int64
	seconds int
	traced  bool
	pmtestd string
	// spanFile, when set, receives the traced run's spans.
	spanFile string
}

// result is what a run prints: correctness, op accounting and metrics.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	notes             []string
}

type metric struct {
	name  string
	value float64
	unit  string
}

// bencher carries one run's state across its passes.
type bencher struct {
	rc        runConfig
	in        *input
	ref       *reference
	finalKeys []uint64
	l         *loop
	// The gate's probe (see probeOf): its input, reference and loop.
	probeW    workload
	probeIn   *input
	probeRef  *reference
	probeL    *loop
	res       *result
	samples   map[string][]float64 // per-pass values the metrics aggregate
	lastSpans *engineSpans
}

// newBencher generates the run's input and the probe's from the seed and
// replays both offline for their reference reports.
func newBencher(rc runConfig) (*bencher, error) {
	b := &bencher{rc: rc, res: &result{}, samples: map[string][]float64{}}
	b.in = genInput(rc.w, rc.seed)
	b.finalKeys = b.in.sortedFinal()
	ref, err := runReference(rc.w, b.in, rc.traced)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	b.ref = ref
	b.res.attempted += len(b.in.ops)
	b.res.failed += ref.failed
	b.l = newLoop(b.in, len(ref.digests))

	b.probeW = probeOf(rc.w)
	b.probeIn = genInput(b.probeW, rc.seed)
	if b.probeRef, err = runReference(b.probeW, b.probeIn, false); err != nil {
		return nil, fmt.Errorf("probe reference pass: %w", err)
	}
	b.res.attempted += len(b.probeIn.ops)
	b.res.failed += b.probeRef.failed
	b.probeL = newLoop(b.probeIn, len(b.probeRef.digests))
	return b, nil
}

// bench runs the workload: input from the seed, the reference pass, then
// rounds of native / (track-only) / full passes until the run's seconds
// are used, and the metrics as aggregates over the rounds.
func bench(rc runConfig, progress io.Writer) (*result, error) {
	b, err := newBencher(rc)
	if err != nil {
		return nil, err
	}
	ref := b.ref

	passes := []pass{passNative, passFull}
	if rc.traced {
		passes = []pass{passNative, passTrack, passFull, passTraced}
	}
	deadline := now() + int64(rc.seconds)*int64(time.Second)
	rounds, nativeReps := 0, 1
	for rounds < maxRounds {
		// Rotate the order so no pass always follows the same one.
		for j := range passes {
			p := passes[(j+rounds)%len(passes)]
			reps := 1
			if p == passNative {
				reps = nativeReps
			}
			for ; reps > 0; reps-- {
				if err := b.run(p); err != nil {
					return nil, err
				}
			}
		}
		rounds++
		if rounds >= minRounds && now() >= deadline {
			break
		}
		// The slowdown denominator needs native time to be steady: repeat
		// the native pass until it gets a tenth of a full pass's time
		// (remote_tx's native pass lasts a fiftieth), up to maxNativeReps.
		native, full := b.agg("native_s"), b.agg("full_s")
		nativeReps = min(maxNativeReps, max(1, int(math.Ceil(full/10/native))))
	}
	fmt.Fprintf(progress, "# %s seed %d: %d rounds (%d native, %d full passes), %d ops per pass (%d writes, %d sections, %d trace ops)\n",
		rc.w.name, rc.seed, rounds, len(b.samples["native_s"]), len(b.samples["full_s"]),
		len(b.in.ops), b.in.writes, len(ref.digests), ref.traceOps)
	if rc.traced {
		b.layerMetrics()
		if rc.spanFile != "" {
			if err := b.writeSpans(rc.spanFile); err != nil {
				return nil, err
			}
			b.res.notes = append(b.res.notes, "spans written to "+rc.spanFile)
		}
	} else {
		b.endToEndMetrics()
	}
	b.res.correct = b.res.failed == 0
	return b.res, nil
}

// add records one per-pass sample.
func (b *bencher) add(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// agg aggregates a sample series into its metric value.
func (b *bencher) agg(name string) float64 { return iqm(b.samples[name]) }

func (b *bencher) emit(name string, v float64, unit string) {
	b.res.metrics = append(b.res.metrics, metric{name, v, unit})
}

// run executes one pass and records its samples.
func (b *bencher) run(p pass) error {
	w := b.rc.w
	m := modeFull
	switch p {
	case passNative:
		m = modeNative
	case passTrack:
		m = modeTrack
	}
	var h hooks
	var es *engineSpans
	traced := p == passTraced
	if traced {
		if w.remote {
			h.metrics = obs.NewMetrics(0)
		} else {
			es = newEngineSpans(len(b.ref.digests))
			h.observer = es
		}
	}
	runtime.GC() // start every pass from a collected heap
	res0 := core.ResourceStats()
	t0 := now()
	var nd *node
	if w.remote && m == modeFull {
		var err error
		if nd, err = startNode(b.rc.pmtestd); err != nil {
			return fmt.Errorf("%s pass: %w", m, err)
		}
		defer nd.stop()
	}
	inst, err := setup(w, b.in, m, nil, h, nd)
	setupNs := now() - t0
	if err != nil {
		return fmt.Errorf("%s pass: %w", m, err)
	}
	defer inst.close()
	// Collect set-up garbage now, so every pass starts its timed loop
	// from the same heap state rather than with a cycle half done.
	runtime.GC()
	var send func()
	if inst.th != nil {
		inst.th.Start()
		send = inst.th.SendTrace
	}
	b.l.drive(inst.store, b.in, send, traced, m == modeFull)
	end := b.l.lastOp
	var reports []core.Report
	if inst.sess != nil {
		var stopHeap func()
		if m == modeFull {
			stopHeap = b.l.watchHeap()
		}
		reports = inst.sess.GetResult()
		end = now()
		if stopHeap != nil {
			stopHeap()
		}
	}
	wall := float64(end-b.l.start) / 1e9
	b.res.attempted += len(b.in.ops)
	b.res.failed += b.l.failedOps
	// Everything the pass measures is read before the probe runs.
	res1 := core.ResourceStats()
	var snap obs.NodeSnapshot
	if traced && nd != nil {
		if snap, err = nd.snapshot(); err != nil {
			return err
		}
	}
	if m == modeFull {
		bad, err := b.probe(modeFull, nd)
		if err != nil {
			return err
		}
		b.res.failed += bad
	}

	switch p {
	case passNative:
		b.add("native_s", wall)
		return nil
	case passTrack:
		if len(reports) != len(b.ref.digests) {
			b.res.failed += abs(len(b.ref.digests) - len(reports))
		}
		b.add("track_s", wall)
		return nil
	}

	// Full checking: the program's state and every report are checked.
	b.res.failed += verifyFinal(inst.store, b.in, b.finalKeys) + compare(b.ref.digests, reports, false)
	if err := inst.sess.Err(); err != nil {
		b.res.failed++
		b.res.notes = append(b.res.notes, fmt.Sprintf("%s pass: session error: %v", m, err))
	}
	if !traced {
		b.add("full_s", wall)
		b.add("setup_s", float64(setupNs)/1e9)
		b.add("result_wait_s", float64(end-b.l.lastOp)/1e9)
		b.add("peak_heap_mib", float64(b.l.peakHeap)/(1<<20))
		b.add("op_p50_us", float64(quantile(b.l.writeLat, 0.50))/1e3)
		b.add("op_p99_us", float64(quantile(b.l.lat, 0.99))/1e3)
		return nil
	}

	b.add("traced_s", wall)
	sends := make([]int64, len(b.ref.digests))
	for k := range sends {
		sends[k] = b.l.sendEnd[k] - b.l.sendStart[k]
	}
	sendTotal := sum(sends)
	b.add("send.p50_us", float64(quantile(sends, 0.50))/1e3)
	b.add("send.p99_us", float64(quantile(sends, 0.99))/1e3)
	b.add("self.program_s", float64(b.l.lastOp-b.l.start-sendTotal)/1e9)

	if gets := res1.StatePoolGets - res0.StatePoolGets; gets > 0 {
		b.add("shadow.pool_hit_rate", float64(gets-(res1.StatePoolMisses-res0.StatePoolMisses))/float64(gets))
	} else {
		b.add("shadow.pool_hit_rate", 0)
	}
	if got := res1.GCRetiredIntervals - res0.GCRetiredIntervals; got != b.ref.gcRetired {
		b.res.notes = append(b.res.notes, fmt.Sprintf(
			"shadow.gc_retired: engine retired %d intervals, offline replay %d", got, b.ref.gcRetired))
	}

	if !w.remote {
		b.lastSpans = es
		b.add("self.send_s", float64(sendTotal-b.sendOverlap(es))/1e9)
		b.add("engine.queue_wait_p50_us", float64(quantile(es.wait, 0.50))/1e3)
		b.add("engine.queue_wait_p99_us", float64(quantile(es.wait, 0.99))/1e3)
		// SendTrace blocks exactly when the engine's Submit stalls on a
		// full worker queue: one measurement, seen from both layers.
		b.add("send.blocked_s", float64(es.stall.Load())/1e9)
		b.add("engine.stall_s", float64(es.stall.Load())/1e9)
		lat := make([]int64, len(es.done))
		for k := range lat {
			lat[k] = es.done[k] - (es.deq[k] - es.wait[k])
		}
		b.add("engine.section_latency_p99_us", float64(quantile(lat, 0.99))/1e3)
		busy := sum(es.check)
		waitTotal := sum(es.wait)
		b.add("self.queue_wait_s", float64(waitTotal)/1e9)
		b.add("self.check_s", float64(busy)/1e9)
		b.add("check.busy_s", float64(busy)/1e9)
		b.add("check.busy_share", float64(busy)/1e9/wall)
		b.add("check.section_p50_us", float64(quantile(es.check, 0.50))/1e3)
		b.add("check.section_p99_us", float64(quantile(es.check, 0.99))/1e3)
		return nil
	}

	client := h.metrics.Snapshot()
	nm := snap.Metrics
	busy := nm.CheckDur.Sum.Seconds()
	b.add("self.send_s", float64(sendTotal)/1e9)
	b.add("self.check_s", busy)
	b.add("self.queue_wait_s", nm.QueueWait.Sum.Seconds())
	b.add("self.dist_s", client.DistRTT.Sum.Seconds()-busy)
	b.add("check.busy_s", busy)
	b.add("check.busy_share", busy/wall)
	b.add("check.section_p50_us", float64(nm.CheckDur.P50)/1e3)
	b.add("check.section_p99_us", float64(nm.CheckDur.P99)/1e3)
	b.add("dist.rtt_p50_us", float64(client.DistRTT.P50)/1e3)
	b.add("dist.rtt_p99_us", float64(client.DistRTT.P99)/1e3)
	b.add("dist.rtt_sum_s", client.DistRTT.Sum.Seconds())
	b.add("dist.node_check_busy_s", busy)
	b.add("dist.node_queue_wait_p99_us", float64(nm.QueueWait.P99)/1e3)
	b.add("dist.retries", float64(client.DistRetries))
	b.add("dist.fallbacks", float64(client.DistFallbacks))
	return nil
}

// compare holds reports to their reference digests: a missing, extra or
// mismatched report counts as one failed op, and so does one without a
// finding when wantFinding is set.
func compare(digests []uint64, reports []core.Report, wantFinding bool) int {
	bad := max(0, len(digests)-len(reports))
	for i, r := range reports {
		if i >= len(digests) || digest(r) != digests[i] || (wantFinding && r.Fails() == 0) {
			bad++
		}
	}
	return bad
}

// probe runs the gate's probe (see probeOf) through a fresh session of
// mode m, checked on nd when it is set, and returns its failed ops: bad
// reads and sections whose report lacks its finding or differs from the
// reference. Full passes run it after their measurements are taken.
func (b *bencher) probe(m mode, nd *node) (int, error) {
	inst, err := setup(b.probeW, b.probeIn, m, nil, hooks{}, nd)
	if err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	defer inst.close()
	inst.th.Start()
	b.probeL.drive(inst.store, b.probeIn, inst.th.SendTrace, false, false)
	reports := inst.sess.GetResult()
	b.res.attempted += len(b.probeIn.ops)
	bad := b.probeL.failedOps + compare(b.probeRef.digests, reports, true)
	if err := inst.sess.Err(); err != nil {
		bad++
		b.res.notes = append(b.res.notes, fmt.Sprintf("probe: session error: %v", err))
	}
	return bad, nil
}

// sendOverlap is the part of the SendTrace spans covered by their own
// child spans (the section's queue wait and check), which a span's self
// time excludes.
func (b *bencher) sendOverlap(es *engineSpans) int64 {
	covered := int64(0)
	for k := range es.deq {
		s, e := b.l.sendStart[k], b.l.sendEnd[k]
		covered += overlap(s, e, es.deq[k]-es.wait[k], es.deq[k])
		covered += overlap(s, e, es.done[k]-es.check[k], es.done[k])
	}
	return covered
}

func overlap(s1, e1, s2, e2 int64) int64 {
	return max(0, min(e1, e2)-max(s1, s2))
}

func abs(x int) int { return max(x, -x) }

// endToEndMetrics aggregate the untraced rounds.
func (b *bencher) endToEndMetrics() {
	thr := make([]float64, len(b.samples["full_s"]))
	for i, full := range b.samples["full_s"] {
		thr[i] = float64(len(b.in.ops)) / full
	}
	b.emit("throughput_ops_s", iqm(thr), "ops/s")
	// A ratio of aggregates, not an aggregate of per-round ratios: rounds
	// hold different numbers of native passes.
	b.emit("slowdown", b.agg("full_s")/b.agg("native_s"), "x")
	b.emit("result_wait_s", b.agg("result_wait_s"), "s")
	b.emit("op_p50_us", b.agg("op_p50_us"), "us")
	b.emit("op_p99_us", b.agg("op_p99_us"), "us")
	b.emit("setup_s", b.agg("setup_s"), "s")
	b.emit("peak_heap_mib", b.agg("peak_heap_mib"), "MiB")
	b.emit("success_rate", 1-float64(b.res.failed)/float64(b.res.attempted), "ratio")
}

// layerMetrics are the per-layer numbers of a traced run: aggregates of
// its rounds plus the deterministic counts and offline replays of the
// reference pass.
func (b *bencher) layerMetrics() {
	ref := b.ref
	ops := float64(ref.traceOps)
	native, track, full := b.agg("native_s"), b.agg("track_s"), b.agg("full_s")
	b.emit("program.native_s", native, "s")
	b.emit("program.trace_ops", ops, "count")
	b.emit("program.sections", float64(len(ref.digests)), "count")
	b.emit("record.track_only_s", track, "s")
	b.emit("record.ns_per_op", (track-native)*1e9/ops, "ns")
	b.emit("record.framework_slowdown", track/native, "x")
	for _, name := range []string{"send.p50_us", "send.p99_us"} {
		b.emit(name, b.agg(name), "us")
	}
	b.emit("send.blocked_s", b.agg("send.blocked_s"), "s")
	b.emit("engine.queue_wait_p50_us", b.agg("engine.queue_wait_p50_us"), "us")
	b.emit("engine.queue_wait_p99_us", b.agg("engine.queue_wait_p99_us"), "us")
	b.emit("engine.stall_s", b.agg("engine.stall_s"), "s")
	b.emit("engine.section_latency_p99_us", b.agg("engine.section_latency_p99_us"), "us")
	b.emit("check.full_over_track", full/track, "x")
	b.emit("check.busy_s", b.agg("check.busy_s"), "s")
	b.emit("check.busy_share", b.agg("check.busy_share"), "ratio")
	b.emit("check.replay_ns_per_op", float64(ref.replayNs)/ops, "ns")
	b.emit("check.section_p50_us", b.agg("check.section_p50_us"), "us")
	b.emit("check.section_p99_us", b.agg("check.section_p99_us"), "us")
	speedup := 0.0
	if ref.stripedNs > 0 {
		speedup = float64(ref.replayNs) / float64(ref.stripedNs)
	}
	b.emit("check.stripe_speedup", speedup, "x")
	b.emit("check.stripe_nproc", float64(stripeShards()), "count")
	b.emit("shadow.peak_intervals", float64(ref.peakIntervals), "count")
	b.emit("shadow.gc_retired", float64(ref.gcRetired), "count")
	b.emit("shadow.pool_hit_rate", b.agg("shadow.pool_hit_rate"), "ratio")
	b.emit("codec.bytes_per_op", float64(ref.wireBytes)/ops, "B")
	b.emit("codec.encode_ns_per_op", float64(ref.encodeNs)/ops, "ns")
	b.emit("codec.decode_ns_per_op", float64(ref.decodeNs)/ops, "ns")
	b.emit("dist.rtt_p50_us", b.agg("dist.rtt_p50_us"), "us")
	b.emit("dist.rtt_p99_us", b.agg("dist.rtt_p99_us"), "us")
	b.emit("dist.rtt_share", b.agg("dist.rtt_sum_s")/b.agg("traced_s"), "ratio")
	b.emit("dist.node_check_busy_s", b.agg("dist.node_check_busy_s"), "s")
	b.emit("dist.node_queue_wait_p99_us", b.agg("dist.node_queue_wait_p99_us"), "us")
	// Retries and fallbacks are totals: one in any pass is news.
	retries, fallbacks := 0.0, 0.0
	for i := range b.samples["dist.retries"] {
		retries += b.samples["dist.retries"][i]
		fallbacks += b.samples["dist.fallbacks"][i]
	}
	b.emit("dist.retries", retries, "count")
	b.emit("dist.fallbacks", fallbacks, "count")
	for _, name := range []string{"self.program_s", "self.send_s", "self.queue_wait_s", "self.check_s", "self.dist_s"} {
		b.emit(name, b.agg(name), "s")
	}
	b.emit("tracing.overhead_pct", (b.agg("traced_s")/full-1)*100, "%")
}

// writeSpans writes the last traced pass's spans as Chrome trace-event
// JSON (chrome://tracing, Perfetto): write ops and their SendTrace on the
// program thread, each section's queue wait and check on the engine
// thread, all carrying the section's trace ID.
func (b *bencher) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	first := true
	span := func(name string, tid int, start, end int64, id int) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"trace_id":%d}}`,
			name, tid, float64(start)/1e3, float64(end-start)/1e3, id)
	}
	bw.WriteString("[\n")
	k := 0
	for i := range b.l.opStart {
		id := -1
		if k < len(b.l.sendStart) && b.l.sendStart[k] >= b.l.opStart[i] && b.l.sendEnd[k] <= b.l.opEnd[i] {
			id = k
		}
		span("op", 1, b.l.opStart[i], b.l.opEnd[i], id)
		if id >= 0 {
			span("SendTrace", 1, b.l.sendStart[k], b.l.sendEnd[k], k)
			k++
		}
	}
	if es := b.lastSpans; es != nil {
		for k := range es.deq {
			span("queue_wait", 2, es.deq[k]-es.wait[k], es.deq[k], k)
			span("check", 2, es.done[k]-es.check[k], es.done[k], k)
		}
	}
	bw.WriteString("\n]\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
