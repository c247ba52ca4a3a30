package interval

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestVisitEntersLogNPlusK pins the cost of a range walk at O(log n + k):
// on a tree of 65,536 segments, a narrow Visit, Gaps, Covered or Overlaps
// query enters at most c·(log2 n + k) nodes, k being the number of
// segments the range overlaps. A walk that descended into every left
// subtree entered every node left of the range, ~n/2 on average.
func TestVisitEntersLogNPlusK(t *testing.T) {
	const n = 1 << 16
	const stride, width = 64, 48 // 16-byte gaps between segments
	tr := New[int]()
	for i := 0; i < n; i++ {
		lo := uint64(i) * stride
		tr.Set(lo, lo+width, i)
	}
	var entered int
	visitHook = func(e int) { entered = e }
	defer func() { visitHook = nil }()

	queries := map[string]func(lo, hi uint64){
		"Visit":    func(lo, hi uint64) { tr.Visit(lo, hi, func(Seg[int]) bool { return true }) },
		"Gaps":     func(lo, hi uint64) { tr.Gaps(lo, hi) },
		"Covered":  func(lo, hi uint64) { tr.Covered(lo, hi) },
		"Overlaps": func(lo, hi uint64) { tr.Overlaps(lo, hi) },
		"VisitPtr": func(lo, hi uint64) { tr.VisitPtr(lo, hi, func(uint64, uint64, *int) {}) },
	}
	const c = 4
	log2n := bits.Len(n) - 1
	rng := rand.New(rand.NewSource(1))
	for name, query := range queries {
		worst := 0.0
		for q := 0; q < 2000; q++ {
			lo := uint64(rng.Int63n(n * stride))
			hi := lo + uint64(rng.Intn(8*stride)) + 1
			// k: segments [i*stride, i*stride+width) overlapping [lo, hi).
			first := (lo + stride - width) / stride
			if lo < width {
				first = 0
			}
			last := min((hi-1)/stride, n-1)
			k := 0
			if last >= first {
				k = int(last-first) + 1
			}
			entered = -1
			query(lo, hi)
			if entered < 0 {
				t.Fatalf("%s [%d,%d): visit hook not called", name, lo, hi)
			}
			if bound := c * (log2n + k); entered > bound {
				t.Fatalf("%s [%d,%d) (k=%d) entered %d nodes, bound c·(log2 n + k) = %d",
					name, lo, hi, k, entered, bound)
			}
			worst = max(worst, float64(entered)/float64(log2n+k))
		}
		t.Logf("%s: max nodes entered / (log2 n + k) = %.2f", name, worst)
	}
}
