// Command perfbench is the pmtest benchmark. It runs one workload — a
// PM program (a WHISPER-style ctree on a simulated PM device) under no
// tool, under PMTest tracking only, and under full PMTest checking — on
// an input generated from a seed, checks every report against an
// offline serial replay, and prints each metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A run generates its input from the seed, replays it once offline for
// the reference reports, then repeats rounds of passes over the same
// input — no tool, and full checking — until its seconds are used. With
// -trace 0 the metrics are the end-to-end ones, each the interquartile
// mean of its per-pass samples; with -trace 1 they are the per-layer
// ones, from rounds that add a track-only pass and a traced full pass,
// plus offline replays of the recorded sections through the checker and
// the codec. The traced run also writes its spans (Chrome trace-event
// JSON) to -span-dir.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload kv_tx --seed 1 --seconds 30 --trace 0
//
// The benchmark runs its Go code on one processor (GOMAXPROCS 1, the
// pmtestd child too), so the program goroutine, the checking worker and
// the garbage collector share one CPU and a pass's wall time is what they
// cost together. On a small shared host the second CPU is not the run's
// to keep: with GOMAXPROCS 2, one busy neighbour thread cut kv_tx's
// throughput by a third and quadrupled its op_p99_us, against 1–2% with
// one processor. So no workload is bound by a layer that merely keeps up
// on another core; each is bound by the layer that costs it the most CPU.
// remote_tx also pins the benchmark and its node to one CPU (pinToOneCPU).
// A check span also covers the program's time slices taken while that
// check was in progress, so check.busy_share reads near 1 whenever a
// check is always pending; the checker's share of the processor is
// 1 − 1/check.full_over_track. The offline replays of a traced run
// (check.replay_ns_per_op, check.stripe_speedup, codec.*) run with every
// CPU, so the striped checker can use them.
//
// The workloads, the layer each is predicted to be bound by, and what
// each layer's metrics should move where (all closed loop: one program
// goroutine issues each op when the previous one has returned; default
// local config, X86 with one checking worker, unless stated):
//
//   - kv_tx: YCSB-A (50% update / 50% read, zipfian) over a ctree
//     preloaded with tracking off, 256 B values, one SendTrace per update
//     transaction (~23 ops). Per-section fixed costs dominate: recording,
//     the Submit and queue handoff, and the check of a section too short
//     to amortise its set-up (full ≈ 1.6 × track-only on a 2-vCPU KVM
//     guest, so checking is about 40% of the wall). record.* and send.*
//     should move throughput_ops_s, slowdown and op_p50_us here, and
//     per-section check costs (check.section_p50_us) should too, since
//     the checker shares the program's processor; a change to
//     shadow-memory growth over long sections (shadow.*) should not.
//   - ctree_stream: fresh-key inserts into the same ctree, one SendTrace
//     per 256 transactions (~9.7k ops), Config{EpochGC: true}. Predicted
//     checker-bound: full ≈ 3 × track-only, so checking is about two
//     thirds of the wall. check.* and shadow.* should move
//     throughput_ops_s, result_wait_s, slowdown and peak_heap_mib here;
//     engine.* should move op_p99_us and result_wait_s; send.* moves
//     op_p99_us where backpressure blocks on the full queue.
//     check.stripe_speedup replays its sections with Shards = nproc
//     against one stripe (0 when nproc is 1).
//   - remote_tx: the first 5k ops of the kv_tx input with Config.Remote
//     pointed at one `pmtestd serve` child on loopback, started per pass.
//     The client keeps one section in flight, so it is predicted
//     transport-bound: dist.rtt_share (RTT summed over sections ÷ wall)
//     near 1. codec.* and dist.* should move throughput_ops_s and
//     result_wait_s here and nowhere else; record.* should not move it.
//     Its reports equal the first kv_tx reports.
//
// op_p99_us is over every program op, a write timed with its SendTrace;
// op_p50_us is over the writes. YCSB-A's reads and updates form two
// latency clusters of about half the ops each, so the median of all ops
// sits on the boundary between them and lands in one or the other with
// the seed's exact update share (remote_tx measured 2.8 µs on one seed
// and 4.8 µs on another, same code); the median write sits inside its
// cluster. On ctree_stream every op is a write. On kv_tx about one
// Submit in 65 blocks on the full engine queue (the program fills it
// while the checker waits for the processor, then waits while the
// checker drains it): over 1.5% of updates, so a p99 over updates alone
// would sit inside that cluster, while over all ops (0.8%) it sits in
// the updates' fast tail and moves when blocking grows. Per-layer
// metrics of a layer a workload does not use (dist.* off remote_tx,
// engine.* on it) read 0.
//
// peak_heap_mib is the benchmark process's heap high-water mark, sampled
// while the program runs and while it waits for its verdict. On remote_tx
// it is the client's heap only: the checker runs in the pmtestd child.
//
// send.blocked_s is the measured time Submit stalled on a full worker
// queue (the engine's obs.StallObserver events, also engine.stall_s). It
// reads 0 on remote_tx: the dist client exposes no stall time, and the
// whole 5k-op input encodes to about 2.4 MB, under its 16 MB buffer.
//
// A failed op is a store error, a read or final state that disagrees
// with the input's expected value, a section without a report, or a
// report whose digest differs from the serial core.CheckTrace replay.
// The workload's own sections carry no findings, so after its timed part
// every full pass also runs a probe (probeOf): a small ctree with logging
// bugs injected, under the same session config and node, whose every
// section must carry its finding and match its own reference replay. A
// checker that stops applying its rules fails the probe, not the clean
// sections. success_rate is 1 − failed ÷ attempted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	workload := flag.String("workload", "kv_tx", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "how long the rounds of one run measure")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	pmtestd := flag.String("pmtestd", "", "pmtestd binary (remote workloads)")
	spanDir := flag.String("span-dir", "", "directory for the traced run's span file (none when empty)")
	flag.Parse()
	runtime.GOMAXPROCS(1)

	w, err := findWorkload(*workload)
	if err != nil {
		fatal(err)
	}
	if w.remote {
		if err := pinToOneCPU(); err != nil {
			fatal(err)
		}
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	rc := runConfig{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, pmtestd: *pmtestd}
	if rc.traced && *spanDir != "" {
		rc.spanFile = filepath.Join(*spanDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
	}
	res, err := bench(rc, os.Stdout)
	if err != nil {
		fatal(err)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]metricValue{}}
	for _, m := range res.metrics {
		fmt.Printf("%-32s %14.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	for _, n := range res.notes {
		fmt.Println("# " + n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
