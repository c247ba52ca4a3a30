package interval

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func segs[V any](t *Tree[V]) []Seg[V] { return t.All() }

func TestEmptyTree(t *testing.T) {
	var tr Tree[int]
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if tr.Overlaps(0, 100) {
		t.Fatal("empty tree reports overlap")
	}
	if tr.Covered(5, 5) != true {
		t.Fatal("empty range should be trivially covered")
	}
	if tr.Covered(0, 1) {
		t.Fatal("empty tree cannot cover a non-empty range")
	}
	if got := tr.ExtractOverlap(0, 10); got != nil {
		t.Fatalf("ExtractOverlap on empty = %v, want nil", got)
	}
}

func TestSetAndVisit(t *testing.T) {
	tr := New[string]()
	tr.Set(10, 20, "a")
	tr.Set(30, 40, "b")
	want := []Seg[string]{{10, 20, "a"}, {30, 40, "b"}}
	if got := segs(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("All = %v, want %v", got, want)
	}
	var visited []Seg[string]
	tr.Visit(15, 35, func(s Seg[string]) bool { visited = append(visited, s); return true })
	wantV := []Seg[string]{{15, 20, "a"}, {30, 35, "b"}}
	if !reflect.DeepEqual(visited, wantV) {
		t.Fatalf("Visit = %v, want %v", visited, wantV)
	}
}

func TestSetSplitsPartialOverlap(t *testing.T) {
	tr := New[string]()
	tr.Set(0, 100, "old")
	tr.Set(40, 60, "new")
	want := []Seg[string]{{0, 40, "old"}, {40, 60, "new"}, {60, 100, "old"}}
	if got := segs(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("All = %v, want %v", got, want)
	}
}

func TestSetExactReplace(t *testing.T) {
	tr := New[int]()
	tr.Set(5, 10, 1)
	tr.Set(5, 10, 2)
	want := []Seg[int]{{5, 10, 2}}
	if got := segs(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("All = %v, want %v", got, want)
	}
}

func TestSetSwallowsManySegments(t *testing.T) {
	tr := New[int]()
	for i := uint64(0); i < 10; i++ {
		tr.Set(i*10, i*10+5, int(i))
	}
	tr.Set(3, 97, -1)
	// Segments [10,15) … [90,95) are swallowed; [0,3) survives as remainder.
	want := []Seg[int]{{0, 3, 0}, {3, 97, -1}}
	if got := segs(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("All = %v, want %v", got, want)
	}
}

func TestExtractOverlapClipsAndPreservesRemainders(t *testing.T) {
	tr := New[string]()
	tr.Set(0, 10, "a")
	tr.Set(10, 20, "b")
	tr.Set(20, 30, "c")
	got := tr.ExtractOverlap(5, 25)
	want := []Seg[string]{{5, 10, "a"}, {10, 20, "b"}, {20, 25, "c"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExtractOverlap = %v, want %v", got, want)
	}
	rest := segs(tr)
	wantRest := []Seg[string]{{0, 5, "a"}, {25, 30, "c"}}
	if !reflect.DeepEqual(rest, wantRest) {
		t.Fatalf("remaining = %v, want %v", rest, wantRest)
	}
}

func TestExtractOverlapInsideSingleSegment(t *testing.T) {
	tr := New[string]()
	tr.Set(0, 100, "x")
	got := tr.ExtractOverlap(40, 60)
	want := []Seg[string]{{40, 60, "x"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExtractOverlap = %v, want %v", got, want)
	}
	rest := segs(tr)
	wantRest := []Seg[string]{{0, 40, "x"}, {60, 100, "x"}}
	if !reflect.DeepEqual(rest, wantRest) {
		t.Fatalf("remaining = %v, want %v", rest, wantRest)
	}
}

func TestDelete(t *testing.T) {
	tr := New[int]()
	tr.Set(0, 10, 1)
	tr.Delete(3, 7)
	want := []Seg[int]{{0, 3, 1}, {7, 10, 1}}
	if got := segs(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("All = %v, want %v", got, want)
	}
}

func TestCoveredAndGaps(t *testing.T) {
	tr := New[int]()
	tr.Set(10, 20, 1)
	tr.Set(20, 30, 2)
	if !tr.Covered(12, 28) {
		t.Fatal("contiguous segments should cover inner range")
	}
	if tr.Covered(5, 15) {
		t.Fatal("range extending left of coverage reported covered")
	}
	if tr.Covered(25, 35) {
		t.Fatal("range extending right of coverage reported covered")
	}
	gaps := tr.Gaps(0, 40)
	want := []Seg[struct{}]{{0, 10, struct{}{}}, {30, 40, struct{}{}}}
	if !reflect.DeepEqual(gaps, want) {
		t.Fatalf("Gaps = %v, want %v", gaps, want)
	}
	tr2 := New[int]()
	tr2.Set(10, 15, 0)
	tr2.Set(20, 25, 0)
	gaps2 := tr2.Gaps(10, 25)
	want2 := []Seg[struct{}]{{15, 20, struct{}{}}}
	if !reflect.DeepEqual(gaps2, want2) {
		t.Fatalf("Gaps = %v, want %v", gaps2, want2)
	}
}

func TestVisitPtrMutation(t *testing.T) {
	tr := New[int]()
	tr.Set(0, 10, 1)
	tr.Set(10, 20, 2)
	tr.Set(30, 40, 3)
	var bounds []Seg[struct{}]
	// [5, 15) overlaps the first two segments; VisitPtr passes their full
	// bounds, unclipped, and leaves [30, 40) alone.
	tr.VisitPtr(5, 15, func(lo, hi uint64, v *int) {
		bounds = append(bounds, Seg[struct{}]{Lo: lo, Hi: hi})
		*v *= 10
	})
	wantBounds := []Seg[struct{}]{{Lo: 0, Hi: 10}, {Lo: 10, Hi: 20}}
	if !reflect.DeepEqual(bounds, wantBounds) {
		t.Fatalf("VisitPtr bounds = %v, want %v", bounds, wantBounds)
	}
	want := []Seg[int]{{0, 10, 10}, {10, 20, 20}, {30, 40, 3}}
	if got := segs(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("All = %v, want %v", got, want)
	}
}

func TestExact(t *testing.T) {
	tr := New[int]()
	tr.Set(0, 10, 1)
	tr.Set(10, 20, 2)
	for _, c := range []struct {
		lo, hi uint64
		want   int // 0: nil
	}{
		{0, 10, 1}, {10, 20, 2},
		{0, 20, 0}, {0, 5, 0}, {5, 10, 0}, {10, 25, 0}, {20, 30, 0},
	} {
		p := tr.Exact(c.lo, c.hi)
		switch {
		case c.want == 0 && p != nil:
			t.Errorf("Exact(%d, %d) = %d, want nil", c.lo, c.hi, *p)
		case c.want != 0 && (p == nil || *p != c.want):
			t.Errorf("Exact(%d, %d) = %v, want %d", c.lo, c.hi, p, c.want)
		}
	}
	*tr.Exact(10, 20) = 7
	want := []Seg[int]{{0, 10, 1}, {10, 20, 7}}
	if got := segs(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("All after write through Exact = %v, want %v", got, want)
	}
}

func TestVisitEarlyStop(t *testing.T) {
	tr := New[int]()
	for i := uint64(0); i < 10; i++ {
		tr.Set(i*10, i*10+10, int(i))
	}
	n := 0
	tr.Visit(0, 100, func(s Seg[int]) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("visited %d segments, want 3 (early stop)", n)
	}
}

func TestInsertNonOverlapping(t *testing.T) {
	tr := New[int]()
	tr.Insert(50, 60, 5)
	tr.Insert(0, 10, 0)
	tr.Insert(20, 30, 2)
	want := []Seg[int]{{0, 10, 0}, {20, 30, 2}, {50, 60, 5}}
	if got := segs(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("All = %v, want %v", got, want)
	}
}

func TestZeroLengthOpsAreNoOps(t *testing.T) {
	tr := New[int]()
	tr.Set(5, 5, 1)
	tr.Insert(7, 7, 1)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after zero-length ops, want 0", tr.Len())
	}
	tr.Set(0, 10, 1)
	if got := tr.ExtractOverlap(4, 4); got != nil {
		t.Fatalf("zero-length ExtractOverlap = %v, want nil", got)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

// model is a naive reference: one value per byte address.
type model map[uint64]int

func (m model) set(lo, hi uint64, v int) {
	for a := lo; a < hi; a++ {
		m[a] = v
	}
}

func (m model) del(lo, hi uint64) {
	for a := lo; a < hi; a++ {
		delete(m, a)
	}
}

// flatten reads tree contents byte-by-byte for comparison with the model.
func flatten(tr *Tree[int], limit uint64) model {
	out := model{}
	tr.Visit(0, limit, func(s Seg[int]) bool {
		for a := s.Lo; a < s.Hi; a++ {
			out[a] = s.Val
		}
		return true
	})
	return out
}

// TestQuickAgainstModel drives random Set/Delete/ExtractOverlap/VisitPtr
// sequences, with Sets weighted towards the exact bounds of a stored
// segment (the in-place path), and checks the tree agrees with a per-byte
// model — the core correctness property the shadow memory relies on.
// Exact is checked against the stored segments and the model, and
// VisitPtr must reach exactly the model's bytes in its range.
func TestQuickAgainstModel(t *testing.T) {
	const space = 256
	f := func(seed int64, opsRaw []uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New[int]()
		m := model{}
		for i, raw := range opsRaw {
			lo := uint64(raw) % space
			ln := uint64(rng.Intn(64)) + 1
			hi := lo + ln
			if all := tr.All(); len(all) > 0 && rng.Intn(3) == 0 {
				s := all[rng.Intn(len(all))]
				lo, hi = s.Lo, s.Hi
			}
			if !exactAgrees(tr, m, lo, hi) {
				return false
			}
			switch rng.Intn(4) {
			case 0:
				tr.Set(lo, hi, i)
				m.set(lo, hi, i)
			case 1:
				tr.Delete(lo, hi)
				m.del(lo, hi)
			case 2:
				got := tr.ExtractOverlap(lo, hi)
				// Extracted segments must exactly match the model's bytes.
				for _, s := range got {
					for a := s.Lo; a < s.Hi; a++ {
						if mv, ok := m[a]; !ok || mv != s.Val {
							return false
						}
					}
				}
				m.del(lo, hi)
				// Re-insert to keep contents interesting.
				for _, s := range got {
					tr.Insert(s.Lo, s.Hi, s.Val)
					m.set(s.Lo, s.Hi, s.Val)
				}
			case 3:
				// VisitPtr reaches every modelled byte of [lo, hi) once,
				// in ascending segment order; bump each value through the
				// pointer.
				reached := 0
				next := uint64(0)
				ok := true
				tr.VisitPtr(lo, hi, func(sLo, sHi uint64, v *int) {
					if sLo < next || sLo >= hi || sHi <= lo {
						ok = false
					}
					next = sHi
					for a := sLo; a < sHi; a++ {
						if mv, in := m[a]; !in || mv != *v {
							ok = false
						}
						if a >= lo && a < hi {
							reached++
						}
					}
					*v += 1000
					m.set(sLo, sHi, *v)
				})
				want := 0
				for a := lo; a < hi; a++ {
					if _, in := m[a]; in {
						want++
					}
				}
				if !ok || reached != want {
					return false
				}
			}
			if !reflect.DeepEqual(flatten(tr, space+128), m) || tr.Len() != len(tr.All()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// exactAgrees checks Exact(lo, hi) against the stored segments: it finds
// a value exactly when a segment has those bounds, and the value is the
// model's on every byte.
func exactAgrees(tr *Tree[int], m model, lo, hi uint64) bool {
	var stored *Seg[int]
	for _, s := range tr.All() {
		if s.Lo == lo && s.Hi == hi {
			stored = &s
			break
		}
	}
	p := tr.Exact(lo, hi)
	if (p == nil) != (stored == nil) {
		return false
	}
	if p == nil {
		return true
	}
	for a := lo; a < hi; a++ {
		if m[a] != *p {
			return false
		}
	}
	return *p == stored.Val
}

// TestQuickSegmentsSortedDisjoint asserts structural invariants under random
// operations: All() is sorted, non-overlapping, with no empty segments.
func TestQuickSegmentsSortedDisjoint(t *testing.T) {
	f := func(ops []uint16) bool {
		tr := New[int]()
		for i, raw := range ops {
			lo := uint64(raw % 512)
			hi := lo + uint64(raw%97) + 1
			if raw%5 == 0 {
				tr.Delete(lo, hi)
			} else {
				tr.Set(lo, hi, i)
			}
			all := tr.All()
			for j, s := range all {
				if s.Lo >= s.Hi {
					return false
				}
				if j > 0 && all[j-1].Hi > s.Lo {
					return false
				}
			}
			if tr.Len() != len(all) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSet(b *testing.B) {
	tr := New[int]()
	for i := 0; i < b.N; i++ {
		lo := uint64(i*64) % (1 << 20)
		tr.Set(lo, lo+64, i)
	}
}

func BenchmarkVisit(b *testing.B) {
	tr := New[int]()
	for i := 0; i < 1<<14; i++ {
		lo := uint64(i * 64)
		tr.Set(lo, lo+64, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(i*64) % (1 << 19)
		tr.Visit(lo, lo+256, func(Seg[int]) bool { return true })
	}
}
