package main

import (
	"encoding/binary"
	"fmt"
	"runtime/metrics"
	"time"

	"pmtest"
	"pmtest/internal/obs"
	"pmtest/internal/pmem"
	"pmtest/internal/trace"
	"pmtest/internal/whisper"
)

// mode is the tool attached to one pass of the program.
type mode int

const (
	modeNative mode = iota // no tool: the slowdown denominator
	modeTrack              // PMTest with TrackOnly: record and ship, no checking
	modeFull               // PMTest with the workload's checker config
)

func (m mode) String() string {
	return [...]string{"native", "track", "full"}[m]
}

// epoch anchors the benchmark's monotonic clock; now() is nanoseconds
// since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// hooks are the observation points a traced full pass installs.
type hooks struct {
	observer obs.Observer // Config.Observer (local engine)
	metrics  *obs.Metrics // Config.Metrics (remote client counters)
}

// instance is one set-up copy of the program: a ctree on a fresh PM
// device, preloaded, with its PMTest session when the mode has one.
type instance struct {
	sess  *pmtest.Session
	th    *pmtest.Thread
	store *whisper.CTree
}

// deviceSize leaves room for every record the pass can allocate: a
// preloaded key or an insert takes a 64 B node and a 256 B value, and an
// update's new value reuses the one it frees.
func deviceSize(w workload) uint64 {
	return 16<<20 + uint64(w.preload+w.ops)*512
}

// setup builds an instance: session for the mode (checked on nd when
// it is set), device, store, and the preload with tracking off. Its wall
// time, with the node's start, is the setup_s sample of a full pass.
func setup(w workload, in *input, m mode, sink trace.Sink, h hooks, nd *node) (*instance, error) {
	inst := &instance{}
	if m != modeNative {
		cfg := pmtest.Config{
			TrackOnly: m == modeTrack,
			EpochGC:   w.check.EpochGC,
			Observer:  h.observer,
			Metrics:   h.metrics,
		}
		if nd != nil {
			cfg.Remote = &pmtest.RemoteConfig{Nodes: []string{nd.addr}}
		}
		inst.sess = pmtest.Init(cfg)
		inst.th = inst.sess.ThreadInit()
		sink = inst.th
	}
	dev := pmem.New(deviceSize(w), sink)
	store, err := whisper.NewCTree(dev, w.bugs)
	if err != nil {
		inst.close()
		return nil, fmt.Errorf("create ctree: %w", err)
	}
	inst.store = store
	// Checkers are recorded whenever something records: the reference
	// pass's sections must be the ones the session ships.
	store.SetCheckers(sink != nil)
	for i, k := range in.preloadKeys {
		if err := store.Insert(k, in.values[i%numValues]); err != nil {
			inst.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return inst, nil
}

// close ends the session; reports were taken before.
func (inst *instance) close() {
	if inst.sess != nil {
		inst.sess.Exit()
		inst.sess = nil
	}
}

// loop holds the per-pass recordings of the closed op loop. Slices
// are allocated once per run and reused by every pass.
type loop struct {
	// lat is the latency of every program op (a read, or a write with
	// its SendTrace when it ends a section), in ns; writeLat is that of
	// the writes alone, in input order.
	lat, writeLat []int64
	// sendStart/sendEnd bracket each SendTrace call (traced passes only).
	sendStart, sendEnd []int64
	// opStart/opEnd bracket each write op (traced passes only).
	opStart, opEnd []int64

	start, lastOp int64
	failedOps     int
	peakHeap      uint64
}

func newLoop(in *input, sections int) *loop {
	return &loop{
		lat:       make([]int64, len(in.ops)),
		writeLat:  make([]int64, in.writes),
		sendStart: make([]int64, sections),
		sendEnd:   make([]int64, sections),
		opStart:   make([]int64, in.writes),
		opEnd:     make([]int64, in.writes),
	}
}

// heapSample reads the bytes held by heap objects: live ones and those
// not yet swept, the heap the process actually holds.
var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

// heapEvery is how many ops pass between heap samples while the
// program runs, and heapTick the interval between them while it waits
// for its verdict.
const (
	heapEvery = 1024
	heapTick  = time.Millisecond
)

// drive runs every op of the input against the store in a closed loop:
// each op starts when the previous one returned. send, when non-nil, is
// called after each section's last op (inside that op's latency).
// traced additionally records op and SendTrace spans; sampleHeap tracks
// the heap's high-water mark.
func (l *loop) drive(store *whisper.CTree, in *input, send func(), traced, sampleHeap bool) {
	l.failedOps, l.peakHeap = 0, 0
	w, s := 0, 0
	l.start = now()
	for i := range in.ops {
		o := &in.ops[i]
		t0 := now()
		if o.write {
			if err := store.Insert(o.key, in.values[o.val]); err != nil {
				l.failedOps++
			}
			if o.send && send != nil {
				if traced {
					l.sendStart[s] = now()
					send()
					l.sendEnd[s] = now()
				} else {
					send()
				}
				s++
			}
		} else if v, ok := store.Get(o.key); !ok || binary.LittleEndian.Uint64(v) != uint64(o.val) {
			l.failedOps++
		}
		t1 := now()
		l.lat[i] = t1 - t0
		if o.write {
			l.writeLat[w] = t1 - t0
			if traced {
				l.opStart[w], l.opEnd[w] = t0, t1
			}
			w++
		}
		if sampleHeap && i%heapEvery == 0 {
			l.sampleHeap()
		}
	}
	l.lastOp = now()
	if sampleHeap {
		l.sampleHeap()
	}
}

// watchHeap samples the heap every heapTick on its own goroutine until
// the returned stop is called, so the high-water mark also covers the
// wait for the verdict, when the checker still holds sections.
func (l *loop) watchHeap() (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(heapTick)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				l.sampleHeap()
			}
		}
	}()
	return func() {
		close(done)
		<-exited
		l.sampleHeap()
	}
}

func (l *loop) sampleHeap() {
	metrics.Read(heapSample)
	if v := heapSample[0].Value.Uint64(); v > l.peakHeap {
		l.peakHeap = v
	}
}

// verifyFinal checks the program's final state: every key holds the
// value version its last write (or the preload) gave it. It returns the
// number of keys that do not.
func verifyFinal(store *whisper.CTree, in *input, keys []uint64) int {
	bad := 0
	for _, k := range keys {
		v, ok := store.Get(k)
		if !ok || binary.LittleEndian.Uint64(v) != uint64(in.final[k]) {
			bad++
		}
	}
	return bad
}
