package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"pmtest/internal/core"
	"pmtest/internal/whisper"
)

// valueSize is the value payload of every insert and update (the paper's
// "transaction size" axis, Fig. 10).
const valueSize = 256

// numValues is how many distinct value buffers the generator rotates
// through. Each carries its index in its first eight bytes, so a read can
// be checked against the version it must observe.
const numValues = 64

// workload is one benchmark input shape plus the checking configuration
// it runs under.
type workload struct {
	name string
	// preload keys are inserted with tracking off before timing.
	preload int
	// ops is the number of program ops the generator draws. The ops are
	// drawn one after another from the seeded generator, so a workload
	// with fewer ops of the same shape runs a prefix of the same input.
	ops int
	// stream inserts only fresh keys instead of the YCSB-A mix.
	stream bool
	// txPerSection is how many transactions go into one SendTrace.
	txPerSection int
	// check is the workload's checker configuration (Shards is never set:
	// striping is measured offline only).
	check core.Config
	// remote sends sections to one `pmtestd serve` child process.
	remote bool
	// bugs are injected into the ctree; only the gate's probe sets them.
	bugs whisper.BugSet
}

// ycsbUpdatePct is the share of YCSB-A ops that update an existing key;
// the rest read it.
const ycsbUpdatePct = 50

var workloads = []workload{
	{
		name:         "kv_tx",
		preload:      20000,
		ops:          100000,
		txPerSection: 1,
	},
	{
		name:         "ctree_stream",
		preload:      20000,
		ops:          256 * 100,
		stream:       true,
		txPerSection: 256,
		check:        core.Config{EpochGC: true},
	},
	{
		name:         "remote_tx",
		preload:      20000,
		ops:          5000, // the first 5k kv_tx ops: its reports are a prefix of kv_tx's
		txPerSection: 1,
		remote:       true,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// op is one program operation of the generated input.
type op struct {
	key uint64
	// val is the value index written by an update, or the index a read
	// must observe.
	val   uint16
	write bool
	// send marks the last op of a section: SendTrace follows it.
	send bool
}

// input is everything one pass of the program consumes, generated from
// the seed before any timing starts.
type input struct {
	preloadKeys []uint64
	ops         []op
	values      [][]byte
	writes      int
	// final maps every key the run touches to the value index it must
	// hold after the run (checked once the pass has ended).
	final map[uint64]uint16
}

// scramble is splitmix64's finalizer: a bijection on uint64, so distinct
// indices give distinct keys, and keys arrive in an order that keeps the
// unbalanced ctree shallow.
func scramble(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyOf is the key of the i-th distinct record for a seed.
func keyOf(seed int64, i int) uint64 {
	return scramble(uint64(seed)<<32 ^ uint64(i))
}

// genInput builds the workload's input from the seed. Workloads with the
// same shape get the same input, cut at their ops.
func genInput(w workload, seed int64) *input {
	rng := rand.New(rand.NewSource(seed))
	in := &input{values: make([][]byte, numValues), final: make(map[uint64]uint16)}
	for i := range in.values {
		v := make([]byte, valueSize)
		rng.Read(v)
		binary.LittleEndian.PutUint64(v, uint64(i))
		in.values[i] = v
	}
	in.preloadKeys = make([]uint64, w.preload)
	current := make([]uint16, w.preload)
	for i := range in.preloadKeys {
		in.preloadKeys[i] = keyOf(seed, i)
		current[i] = uint16(i % numValues)
	}
	in.ops = make([]op, w.ops)
	if w.stream {
		for i := range in.ops {
			in.ops[i] = op{key: keyOf(seed, w.preload+i), val: uint16(rng.Intn(numValues)), write: true}
		}
	} else {
		z := newZipf(w.preload, 0.99)
		for i := range in.ops {
			idx := int(fnv64(uint64(z.next(rng))) % uint64(w.preload))
			o := op{key: in.preloadKeys[idx]}
			if rng.Intn(100) < ycsbUpdatePct {
				o.write = true
				o.val = uint16(rng.Intn(numValues))
				current[idx] = o.val
			} else {
				o.val = current[idx]
			}
			in.ops[i] = o
		}
	}
	for i, k := range in.preloadKeys {
		in.final[k] = uint16(i % numValues)
	}
	tx := 0
	for i := range in.ops {
		o := &in.ops[i]
		if !o.write {
			continue
		}
		in.writes++
		in.final[o.key] = o.val
		tx++
		if tx%w.txPerSection == 0 {
			o.send = true
		}
	}
	// The last write always ends a section, so no op is left unsent.
	for i := len(in.ops) - 1; i >= 0; i-- {
		if in.ops[i].write {
			in.ops[i].send = true
			break
		}
	}
	return in
}

// sortedFinal lists the keys the run must leave behind, in key order, so
// the post-run check walks them deterministically.
func (in *input) sortedFinal() []uint64 {
	keys := make([]uint64, 0, len(in.final))
	for k := range in.final {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// fnv64 is FNV-1a over the eight bytes of x: YCSB's scrambled-zipfian
// hash, which spreads the hot ranks over the key space.
func fnv64(x uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 0x100000001b3
		x >>= 8
	}
	return h
}

// zipf is YCSB's zipfian generator (Gray et al., "Quickly generating
// billion-record synthetic databases"): ranks in [0, n) with rank 0 the
// hottest.
type zipf struct {
	n                   float64
	theta, alpha, zetan float64
	eta, half           float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zetan := zeta(n)
	return &zipf{
		n:     float64(n),
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
		half:  1 + math.Pow(0.5, theta),
	}
}

func (z *zipf) next(r *rand.Rand) int {
	uz := r.Float64() * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	u := uz / z.zetan
	return int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// probeOf is the correctness gate's probe for w: a small ctree of the
// same shape, run under the same session config, with two logging bugs
// injected so that every section carries a finding. An update overwrites
// its value pointer without logging it, and an insert links itself from
// its parent without logging the parent's child pointer. A checker that
// stops applying its rules passes w's own clean sections but not these.
func probeOf(w workload) workload {
	p := w
	p.name += "/probe"
	p.preload = 64
	p.ops = 256
	if w.stream {
		p.ops = 2 * w.txPerSection
	}
	p.bugs = whisper.BugSet{whisper.BugCTreeSkipValueLog: true, whisper.BugCTreeSkipParentLog: true}
	return p
}
