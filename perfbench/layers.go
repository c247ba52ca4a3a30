package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pmtest/internal/core"
	"pmtest/internal/obs"
	"pmtest/internal/trace"
)

// digest is a report's identity: a hash over every field a user sees.
// Two reports with equal digests print the same bytes.
func digest(r core.Report) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d\n", r.TraceID, r.Thread, r.Ops, r.TrackedOps)
	for _, d := range r.Diags {
		fmt.Fprintf(h, "%d|%s|%d|%s|%s|%s\n", d.Severity, d.Code, d.OpIndex, d.Site, d.Related, d.Message)
	}
	return h.Sum64()
}

// recorder is the trace.Sink of the reference pass: it collects the
// current section's ops while on.
type recorder struct {
	on  bool
	ops []trace.Op
}

func (r *recorder) Record(op trace.Op, _ int) {
	if r.on {
		r.ops = append(r.ops, op)
	}
}

// reference is what the offline pass over the recorded sections yields:
// one report digest per section (the correctness oracle every timed
// pass is held to) plus the deterministic counts and the offline layer
// replays.
type reference struct {
	digests  []uint64
	traceOps int
	// failed counts ops and sections the reference run itself got wrong:
	// store errors, bad reads, a wrong final state, or a section whose
	// report under the workload's checker config differs from CheckTrace.
	failed int

	// Offline replays (traced runs only).
	replayNs           int64 // workload-config checker, summed over sections
	stripedNs          int64 // Shards: nproc with the same config
	encodeNs, decodeNs int64
	wireBytes          int
	peakIntervals      int
	gcRetired          uint64
}

// stripeShards is the stripe count the ctree_stream replay compares with
// one stripe: one per CPU, the most the striped checker can use.
func stripeShards() int { return runtime.NumCPU() }

// runReference executes the program once with a recording sink, cutting
// sections exactly where SendTrace would, and replays each section
// serially offline through core.CheckTrace. With replays set it also
// times the workload's own checker config, the striped variant (on
// stream workloads, when there is more than one CPU) and the trace
// codec over the same sections.
func runReference(w workload, in *input, replays bool) (*reference, error) {
	if replays {
		// The timed passes run on one processor (see main); the offline
		// replays get every CPU, so the striped checker can use them.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(stripeShards()))
	}
	ref := &reference{}
	rec := &recorder{}
	inst, err := setup(w, in, modeNative, rec, hooks{}, nil)
	if err != nil {
		return nil, err
	}
	cfgChecker := core.NewShardedChecker(core.X86{}, w.check)
	defer cfgChecker.Close()
	var striped *core.ShardedChecker
	if replays && w.stream && stripeShards() > 1 {
		cfg := w.check
		cfg.Shards = stripeShards()
		striped = core.NewShardedChecker(core.X86{}, cfg)
		defer striped.Close()
	}
	var wire bytes.Buffer
	var replayErr error
	send := func() {
		tr := &trace.Trace{ID: len(ref.digests), Ops: rec.ops}
		want := core.CheckTrace(core.X86{}, tr)
		ref.digests = append(ref.digests, digest(want))
		ref.traceOps += len(rec.ops)
		if replays {
			t0 := now()
			got, st := cfgChecker.Check(tr, nil)
			ref.replayNs += now() - t0
			ref.peakIntervals = max(ref.peakIntervals, st.PeakIntervals)
			ref.gcRetired += st.RetiredIntervals
			if digest(got) != digest(want) {
				ref.failed++
			}
			if striped != nil {
				t0 = now()
				got, _ = striped.Check(tr, nil)
				ref.stripedNs += now() - t0
				if digest(got) != digest(want) {
					ref.failed++
				}
			}
			wire.Reset()
			t0 = now()
			if err := trace.Encode(&wire, tr); err != nil && replayErr == nil {
				replayErr = err
			}
			ref.encodeNs += now() - t0
			ref.wireBytes += wire.Len()
			t0 = now()
			back, err := trace.Decode(bytes.NewReader(wire.Bytes()))
			ref.decodeNs += now() - t0
			if err != nil && replayErr == nil {
				replayErr = err
			} else if err == nil && len(back.Ops) != len(tr.Ops) {
				replayErr = fmt.Errorf("codec: section %d decoded %d ops, encoded %d", tr.ID, len(back.Ops), len(tr.Ops))
			}
		}
		rec.ops = rec.ops[:0]
	}
	rec.on = true
	l := newLoop(in, 0)
	l.drive(inst.store, in, send, false, false)
	ref.failed += l.failedOps + verifyFinal(inst.store, in, in.sortedFinal())
	if replayErr != nil {
		return nil, replayErr
	}
	return ref, nil
}

// engineSpans is the Config.Observer of a traced local full pass. It
// records, per trace ID, when the engine dequeued the section, how long
// it waited in the queue, when checking ended and how long it took —
// the engine and check spans joined to the program's SendTrace span by
// trace ID. Every slot is written by the one worker that checks the
// trace and read only after GetResult, which orders the two.
type engineSpans struct {
	deq, wait, done, check []int64
	stall                  atomic.Int64
}

func newEngineSpans(sections int) *engineSpans {
	return &engineSpans{
		deq: make([]int64, sections), wait: make([]int64, sections),
		done: make([]int64, sections), check: make([]int64, sections),
	}
}

func (e *engineSpans) TraceSubmitted(int, int, int) {}

func (e *engineSpans) TraceDequeued(id, _ int, queueWait time.Duration) {
	if id < len(e.deq) {
		e.deq[id], e.wait[id] = now(), int64(queueWait)
	}
}

func (e *engineSpans) TraceChecked(ev obs.TraceEvent) {
	if id := ev.TraceID; id < len(e.done) {
		e.done[id], e.check[id] = now(), int64(ev.CheckDur)
	}
}

// SubmitStalled implements obs.StallObserver: Submit blocked on a full
// worker queue.
func (e *engineSpans) SubmitStalled(_ int, d time.Duration) { e.stall.Add(int64(d)) }

// node is one `pmtestd serve` child process on loopback.
type node struct {
	cmd     *exec.Cmd
	addr    string // section protocol
	obsAddr string // observability endpoint
	exited  chan struct{}
}

// nodeStartTimeout bounds how long a node may take to print its
// addresses.
const nodeStartTimeout = 20 * time.Second

// startNode launches pmtestd serve on ephemeral loopback ports and waits
// until it has printed both addresses.
func startNode(bin string) (*node, error) {
	if bin == "" {
		return nil, errors.New("remote workload needs -pmtestd")
	}
	cmd := exec.Command(bin, "serve", "-listen", "127.0.0.1:0", "-obs-listen", "127.0.0.1:0")
	// The node runs on one processor, like the benchmark (see main).
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// A benchmark that dies without stopping its node takes the node down
	// with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pmtestd: %w", err)
	}
	n := &node{cmd: cmd, exited: make(chan struct{})}
	addrs := make(chan [2]string, 2)
	// Each reader reports the address its stream announces, then drains
	// the stream until the process exits, so the child never blocks on a
	// full pipe.
	scan := func(r io.Reader, prefix string, slot int) {
		sc := bufio.NewScanner(r)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if !found && strings.HasPrefix(line, prefix) {
				found = true
				a, _, _ := strings.Cut(strings.TrimPrefix(line, prefix), " ")
				var v [2]string
				v[slot] = strings.TrimSuffix(a, "/")
				addrs <- v
			}
		}
		if !found {
			addrs <- [2]string{}
		}
	}
	var readers sync.WaitGroup
	readers.Add(2)
	go func() { defer readers.Done(); scan(stdout, "pmtestd serving on ", 0) }()
	go func() { defer readers.Done(); scan(stderr, "observability endpoint on http://", 1) }()
	go func() {
		// Both pipes reach EOF when the child exits; only then may Wait
		// close them.
		readers.Wait()
		_ = cmd.Wait() // the exit status of a node we stopped is not news
		close(n.exited)
	}()
	timeout := time.After(nodeStartTimeout)
wait:
	for i := 0; i < 2; i++ {
		select {
		case v := <-addrs:
			if v[0] != "" {
				n.addr = v[0]
			}
			if v[1] != "" {
				n.obsAddr = v[1]
			}
		case <-timeout:
			break wait
		}
	}
	if n.addr == "" || n.obsAddr == "" {
		n.stop()
		return nil, errors.New("pmtestd did not announce its addresses")
	}
	return n, nil
}

// snapshot fetches the node's observability snapshot.
func (n *node) snapshot() (obs.NodeSnapshot, error) {
	var snap obs.NodeSnapshot
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+n.obsAddr+"/obs/v1/snapshot", nil)
	if err != nil {
		return snap, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return snap, fmt.Errorf("node snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("node snapshot: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("node snapshot: %w", err)
	}
	return snap, nil
}

// stop asks the node to shut down and waits for it to exit, killing it
// if it does not within a few seconds.
func (n *node) stop() {
	_ = n.cmd.Process.Signal(syscall.SIGTERM) // an exited child is fine
	select {
	case <-n.exited:
	case <-time.After(5 * time.Second):
		_ = n.cmd.Process.Kill()
		<-n.exited
	}
}
