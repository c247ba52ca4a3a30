package obs

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// randHist builds a histogram from n seeded random observations and
// returns both the histogram snapshot and the raw durations observed.
func randHist(rng *rand.Rand, n int) (HistSnapshot, []time.Duration) {
	var h Histogram
	durs := make([]time.Duration, n)
	for i := range durs {
		// Exponent spread covers every bucket including the unbounded
		// last one; the jitter lands observations mid-bucket.
		d := time.Duration(1<<uint(rng.Intn(36))) + time.Duration(rng.Intn(1000))
		durs[i] = d
		h.Observe(d)
	}
	return h.Snapshot(), durs
}

// TestMergeHistExact is the central exactness property: merging the
// snapshots of k histograms is bit-identical to one histogram that
// observed every sample itself — buckets, count, sum, and the quantiles
// recomputed from them.
func TestMergeHistExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var whole Histogram
		parts := make([]HistSnapshot, 1+rng.Intn(4))
		for i := range parts {
			snap, durs := randHist(rng, rng.Intn(200))
			parts[i] = snap
			for _, d := range durs {
				whole.Observe(d)
			}
		}
		merged, err := MergeHist(parts...)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := whole.Snapshot(); !reflect.DeepEqual(merged, want) {
			t.Fatalf("trial %d: merge not exact:\n got %+v\nwant %+v", trial, merged, want)
		}
	}
}

// TestMergeHistCommutative checks merge order does not matter.
func TestMergeHistCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		a, _ := randHist(rng, rng.Intn(300))
		b, _ := randHist(rng, rng.Intn(300))
		ab, err := MergeHist(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := MergeHist(b, a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ab, ba) {
			t.Fatalf("trial %d: merge(a,b) != merge(b,a):\n %+v\n %+v", trial, ab, ba)
		}
	}
}

// TestMergeHistAssociative checks grouping does not matter:
// merge(merge(a,b),c) == merge(a,merge(b,c)) == merge(a,b,c).
func TestMergeHistAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		a, _ := randHist(rng, rng.Intn(200))
		b, _ := randHist(rng, rng.Intn(200))
		c, _ := randHist(rng, rng.Intn(200))
		ab, err := MergeHist(a, b)
		if err != nil {
			t.Fatal(err)
		}
		left, err := MergeHist(ab, c)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := MergeHist(b, c)
		if err != nil {
			t.Fatal(err)
		}
		right, err := MergeHist(a, bc)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := MergeHist(a, b, c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(left, right) || !reflect.DeepEqual(left, flat) {
			t.Fatalf("trial %d: associativity broken:\n left  %+v\n right %+v\n flat  %+v",
				trial, left, right, flat)
		}
	}
}

// TestMergeHistSurvivesJSON checks exactness holds for snapshots that
// crossed the wire — the compacted cumulative bucket encoding must be
// losslessly reconstructible after a JSON round trip.
func TestMergeHistSurvivesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var whole Histogram
	parts := make([]HistSnapshot, 3)
	for i := range parts {
		snap, durs := randHist(rng, 150)
		for _, d := range durs {
			whole.Observe(d)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var back HistSnapshot
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		parts[i] = back
	}
	merged, err := MergeHist(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if want := whole.Snapshot(); !reflect.DeepEqual(merged, want) {
		t.Fatalf("post-JSON merge not exact:\n got %+v\nwant %+v", merged, want)
	}
}

func TestMergeHistRejectsMalformed(t *testing.T) {
	good, _ := randHist(rand.New(rand.NewSource(1)), 50)
	cases := map[string]HistSnapshot{
		"foreign bound": {Count: 1, Buckets: []HistBucket{{Le: 300, Count: 1}}},
		"out of order": {Count: 2, Buckets: []HistBucket{
			{Le: histBound(3), Count: 1}, {Le: histBound(1), Count: 2}}},
		"decreasing cumulative": {Count: 1, Buckets: []HistBucket{
			{Le: histBound(1), Count: 5}, {Le: histBound(2), Count: 3}}},
		"count mismatch": {Count: 9, Buckets: []HistBucket{{Le: histBound(1), Count: 1}}},
	}
	for name, bad := range cases {
		if _, err := MergeHist(good, bad); err == nil {
			t.Errorf("%s: merge accepted a malformed histogram", name)
		}
	}
}

// sampleNode builds a NodeSnapshot with distinctive values for merge
// assertions.
func sampleNode(source string, seed int64) NodeSnapshot {
	rng := rand.New(rand.NewSource(seed))
	m := NewMetrics(4)
	for i := 0; i < 20; i++ {
		m.TraceSubmitted(i, 0, 8)
		m.TraceDequeued(i, 0, time.Duration(rng.Intn(5000)))
		m.TraceChecked(TraceEvent{TraceID: i, Ops: 8, Fails: i % 2,
			CheckDur: time.Duration(rng.Intn(100000))})
	}
	src := &SnapshotSource{Source: source, Metrics: m}
	n := src.Capture()
	dur, _ := randHist(rng, 40)
	n.Flight = &FlightSummary{Categories: []FlightCategorySummary{
		{Category: "engine", Spans: 10, Errs: int(seed), MaxDur: time.Duration(seed) * time.Millisecond, Dur: dur},
	}}
	return n
}

func TestNodeSnapshotSchemaRoundTrip(t *testing.T) {
	n := sampleNode("node-a", 3)
	if n.SchemaVersion != SnapshotSchemaVersion {
		t.Fatalf("Capture stamped schema %d, want %d", n.SchemaVersion, SnapshotSchemaVersion)
	}
	if n.GoVersion == "" || n.CapturedAt.IsZero() {
		t.Fatalf("missing provenance: %+v", n)
	}
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var back NodeSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// The document must survive the wire losslessly enough to merge
	// identically: a collector working from decoded JSON gets the same
	// fleet view as one handed in-process snapshots.
	direct, err := Merge(n, sampleNode("node-b", 5))
	if err != nil {
		t.Fatal(err)
	}
	viaWire, err := Merge(back, sampleNode("node-b", 5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Metrics.CheckDur, viaWire.Metrics.CheckDur) ||
		direct.Metrics.TracesChecked != viaWire.Metrics.TracesChecked {
		t.Fatalf("wire round trip changed the merge:\n direct %+v\n wire   %+v",
			direct.Metrics, viaWire.Metrics)
	}
}

func TestMergeSumsAndProvenance(t *testing.T) {
	a, b := sampleNode("node-a", 3), sampleNode("node-b", 5)
	a.Metrics.Resources.GCRetiredIntervals, b.Metrics.Resources.GCRetiredIntervals = 2, 3
	a.Metrics.Resources.FenceScanned, b.Metrics.Resources.FenceScanned = 7, 11
	merged, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := merged.Metrics.Resources; r.GCRetiredIntervals != 5 || r.FenceScanned != 18 {
		t.Errorf("resource counters not summed: gc_retired_intervals %d (want 5), fence_scanned %d (want 18)",
			r.GCRetiredIntervals, r.FenceScanned)
	}
	if merged.SchemaVersion != SnapshotSchemaVersion || merged.Partial {
		t.Fatalf("header wrong: %+v", merged)
	}
	if got, want := merged.Metrics.TracesChecked, a.Metrics.TracesChecked+b.Metrics.TracesChecked; got != want {
		t.Errorf("TracesChecked = %d, want %d", got, want)
	}
	if got, want := merged.Metrics.DiagsBySeverity["FAIL"],
		a.Metrics.DiagsBySeverity["FAIL"]+b.Metrics.DiagsBySeverity["FAIL"]; got != want {
		t.Errorf("FAIL diags = %d, want %d", got, want)
	}
	wantUp := a.Metrics.Uptime
	if b.Metrics.Uptime > wantUp {
		wantUp = b.Metrics.Uptime
	}
	if merged.Metrics.Uptime != wantUp {
		t.Errorf("Uptime = %v, want max %v", merged.Metrics.Uptime, wantUp)
	}
	if len(merged.Sources) != 2 || merged.Sources[0].Source != "node-a" || merged.Sources[1].Source != "node-b" {
		t.Fatalf("sources = %+v", merged.Sources)
	}
	if merged.Sources[0].TracesChecked != a.Metrics.TracesChecked {
		t.Errorf("per-source headline lost: %+v", merged.Sources[0])
	}
	// Flight tallies merge by category name.
	if merged.Flight == nil || len(merged.Flight.Categories) != 1 {
		t.Fatalf("flight = %+v", merged.Flight)
	}
	if c := merged.Flight.Categories[0]; c.Spans != 20 || c.Errs != 8 || c.MaxDur != 5*time.Millisecond {
		t.Errorf("flight category = %+v", c)
	}
	// The per-category duration histogram merges alongside the tallies.
	if c := merged.Flight.Categories[0]; c.Dur.Count != a.Flight.Categories[0].Dur.Count+b.Flight.Categories[0].Dur.Count {
		t.Errorf("flight Dur count = %d, want %d", c.Dur.Count,
			a.Flight.Categories[0].Dur.Count+b.Flight.Categories[0].Dur.Count)
	}
	// GC pause histograms merge exactly too (runtime side).
	if merged.Runtime.GCPause.Count != a.Runtime.GCPause.Count+b.Runtime.GCPause.Count {
		t.Errorf("GC pause count = %d, want %d",
			merged.Runtime.GCPause.Count, a.Runtime.GCPause.Count+b.Runtime.GCPause.Count)
	}
}

// TestMergeFlightDurExact extends the central exactness property to
// the per-category span duration histograms: a fleet merge of k nodes'
// flight summaries carries the same Dur histogram as one node that
// recorded every span itself — so pmtop's fleet p99 is a real quantile,
// not an average of averages.
func TestMergeFlightDurExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		var whole Histogram
		nodes := make([]NodeSnapshot, 1+rng.Intn(3))
		for i := range nodes {
			snap, durs := randHist(rng, rng.Intn(150))
			for _, d := range durs {
				whole.Observe(d)
			}
			nodes[i] = sampleNode("n", int64(trial*10+i+1))
			nodes[i].Flight.Categories[0].Dur = snap
		}
		merged, err := Merge(nodes...)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got, want := merged.Flight.Categories[0].Dur, whole.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: flight Dur merge not exact:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestMergeFlightDurOldNode pins compatibility: a snapshot from a node
// built before the Dur field existed (zero-value histogram) merges
// cleanly, contributing nothing to the fleet histogram.
func TestMergeFlightDurOldNode(t *testing.T) {
	newNode := sampleNode("new", 3)
	oldNode := sampleNode("old", 5)
	oldNode.Flight.Categories[0].Dur = HistSnapshot{}
	merged, err := Merge(newNode, oldNode)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Flight.Categories[0].Dur, newNode.Flight.Categories[0].Dur; !reflect.DeepEqual(got, want) {
		t.Fatalf("old-node merge changed the histogram:\n got %+v\nwant %+v", got, want)
	}
}

func TestMergeRejectsSchemaMismatch(t *testing.T) {
	a, b := sampleNode("node-a", 3), sampleNode("node-b", 5)
	b.SchemaVersion = SnapshotSchemaVersion + 1
	if _, err := Merge(a, b); err == nil {
		t.Fatal("merge accepted a schema-version mismatch")
	}
}

func TestMergeRecentTracesCapped(t *testing.T) {
	nodes := make([]NodeSnapshot, 0, mergedRecentCap)
	for i := 0; i < mergedRecentCap; i++ {
		nodes = append(nodes, sampleNode("n", int64(i+1)))
	}
	merged, err := Merge(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Metrics.RecentTraces) > mergedRecentCap {
		t.Fatalf("recent traces = %d, want <= %d", len(merged.Metrics.RecentTraces), mergedRecentCap)
	}
}

// TestSnapshotBuildAllocCeiling pins the allocation cost of building one
// node's snapshot document: it runs on every scrape, so it must stay
// bounded no matter how much traffic the registry has absorbed.
func TestSnapshotBuildAllocCeiling(t *testing.T) {
	m := NewMetrics(64)
	for i := 0; i < 4096; i++ {
		m.TraceSubmitted(i, i%8, 16)
		m.TraceDequeued(i, i%4, time.Duration(i))
		m.TraceChecked(TraceEvent{TraceID: i, Worker: i % 4, Ops: 16, Fails: i % 3,
			Codes:    map[string]int{"NOT_PERSISTED": 1},
			CheckDur: time.Duration(i) * 37})
	}
	src := &SnapshotSource{Source: "alloc-test", Metrics: m}
	// Measured ~18 allocs; the ceiling leaves headroom for Go-version
	// noise while still catching any per-bucket or per-event regression.
	const ceiling = 64
	if got := testing.AllocsPerRun(50, func() { _ = src.Capture() }); got > ceiling {
		t.Fatalf("snapshot build allocates %.0f/op, ceiling %d", got, ceiling)
	}
}

func TestCaptureRuntimeSane(t *testing.T) {
	r := CaptureRuntime()
	if r.Goroutines <= 0 {
		t.Errorf("goroutines = %d", r.Goroutines)
	}
	if r.HeapBytes == 0 || r.TotalAllocBytes == 0 {
		t.Errorf("heap accounting zero: %+v", r)
	}
	// The rebucketed GC pause histogram must satisfy the same invariants
	// MergeHist validates — proven by merging it with itself.
	if _, err := MergeHist(r.GCPause, r.GCPause); err != nil {
		t.Errorf("GC pause histogram does not merge: %v", err)
	}
}
