// Package interval provides an ordered map from half-open address ranges
// [lo, hi) to values, backed by a randomized balanced tree (treap).
//
// The map maintains the invariant that stored segments never overlap.
// Mutating a sub-range splits any partially covered segments, preserving
// their values on the uncovered remainders. All operations run in expected
// O(log n + k) for n stored segments and k touched segments, which is what
// gives the PMTest checking engine its O(log n) shadow-memory updates
// (paper §4.4): stored segments are disjoint, so a range walk enters a
// subtree only when it can hold an overlapping segment. Two primitives
// serve the checker's hot path without restructuring the tree: Exact
// finds the value of the segment stored with exactly the given bounds
// (Set overwrites such a segment in place, Delete unlinks it in one
// descent), and VisitPtr hands out pointers to the stored values
// overlapping a range, so a fence closes intervals in place.
//
// The zero value of Tree is an empty, ready-to-use map.
package interval

// Seg is one stored segment: the half-open range [Lo, Hi) and its value.
type Seg[V any] struct {
	Lo, Hi uint64
	Val    V
}

// Len reports the length of the segment in bytes.
func (s Seg[V]) Len() uint64 { return s.Hi - s.Lo }

type node[V any] struct {
	lo, hi uint64
	val    V
	pri    uint32
	left   *node[V]
	right  *node[V]
	count  int
}

// Tree is an interval map from [lo, hi) ranges to values of type V.
// It is not safe for concurrent use; the checking engine gives each trace
// its own shadow memory, so no locking is needed (paper §4.4).
type Tree[V any] struct {
	root *node[V]
	rng  uint64
	// free is a chain of recycled nodes (linked through left). Extraction
	// and Clear push removed nodes here; newNode pops before allocating,
	// so steady-state mutation of a long-lived tree is allocation-free.
	free *node[V]
}

// New returns an empty interval tree.
func New[V any]() *Tree[V] { return &Tree[V]{} }

func (t *Tree[V]) nextPri() uint32 {
	// xorshift64*; seeded lazily so the zero value works.
	if t.rng == 0 {
		t.rng = 0x9E3779B97F4A7C15
	}
	x := t.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rng = x
	return uint32((x * 0x2545F4914F6CDD1D) >> 32)
}

// newNode returns a node for [lo, hi) → v, reusing a recycled one when
// available.
func (t *Tree[V]) newNode(lo, hi uint64, v V) *node[V] {
	if n := t.free; n != nil {
		t.free = n.left
		n.lo, n.hi, n.val = lo, hi, v
		n.pri = t.nextPri()
		n.left, n.right = nil, nil
		n.count = 1
		return n
	}
	return &node[V]{lo: lo, hi: hi, val: v, pri: t.nextPri(), count: 1}
}

// recycle pushes one node onto the freelist, zeroing its value so the
// freelist does not retain anything the value referenced.
func (t *Tree[V]) recycle(n *node[V]) {
	var zero V
	n.val = zero
	n.right = nil
	n.left = t.free
	t.free = n
}

// recycleAll recycles an entire subtree.
func (t *Tree[V]) recycleAll(n *node[V]) {
	if n == nil {
		return
	}
	t.recycleAll(n.left)
	t.recycleAll(n.right)
	t.recycle(n)
}

func count[V any](n *node[V]) int {
	if n == nil {
		return 0
	}
	return n.count
}

func (n *node[V]) update() *node[V] {
	n.count = 1 + count(n.left) + count(n.right)
	return n
}

// split partitions n into (a, b) where a holds every segment with lo < key
// and b holds the rest. Segments are never cut by split; callers clip
// boundary-crossing segments before splitting.
func split[V any](n *node[V], key uint64) (a, b *node[V]) {
	if n == nil {
		return nil, nil
	}
	if n.lo < key {
		n.right, b = split(n.right, key)
		return n.update(), b
	}
	a, n.left = split(n.left, key)
	return a, n.update()
}

func merge[V any](a, b *node[V]) *node[V] {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.pri > b.pri:
		a.right = merge(a.right, b)
		return a.update()
	default:
		b.left = merge(a, b.left)
		return b.update()
	}
}

// Len returns the number of stored segments.
func (t *Tree[V]) Len() int { return count(t.root) }

// Clear removes all segments, recycling their nodes for reuse.
func (t *Tree[V]) Clear() {
	t.recycleAll(t.root)
	t.root = nil
}

// insertNode adds a segment that is known not to overlap anything stored.
func (t *Tree[V]) insertNode(lo, hi uint64, v V) {
	if lo >= hi {
		return
	}
	n := t.newNode(lo, hi, v)
	a, b := split(t.root, lo)
	t.root = merge(merge(a, n), b)
}

// ExtractOverlap removes every part of the tree overlapping [lo, hi) and
// returns the removed parts clipped to [lo, hi), in ascending order.
// Partially covered segments keep their value on the remainder outside the
// range. This is the workhorse primitive: read-modify-write a sub-range by
// extracting it, transforming the segments, and re-inserting them.
func (t *Tree[V]) ExtractOverlap(lo, hi uint64) []Seg[V] {
	return t.extract(lo, hi, nil, true)
}

// ExtractOverlapAppend is ExtractOverlap appending into dst, so callers
// on the checking hot path can reuse a scratch buffer across calls.
func (t *Tree[V]) ExtractOverlapAppend(dst []Seg[V], lo, hi uint64) []Seg[V] {
	return t.extract(lo, hi, dst, true)
}

// extract implements ExtractOverlap; when collect is false the removed
// segments are recycled without being copied out, which keeps Set and
// Delete allocation-free.
func (t *Tree[V]) extract(lo, hi uint64, dst []Seg[V], collect bool) []Seg[V] {
	if lo >= hi || t.root == nil {
		return dst
	}
	// Step 1: everything strictly left of lo, except a segment that begins
	// before lo may spill into [lo, hi).
	left, rest := split(t.root, lo)
	// The only candidate that can spill over is the maximum of left.
	var spill *node[V]
	if left != nil {
		var max *node[V]
		left, max = popMax(left)
		if max.hi > lo {
			spill = max
		} else {
			left = merge(left, max)
		}
	}
	mid, right := split(rest, hi)

	if spill != nil {
		end := spill.hi
		if end > hi {
			end = hi
			// Keep [hi, spill.hi) on the right.
			rightPart := t.newNode(hi, spill.hi, spill.val)
			a, b := split(right, hi)
			right = merge(merge(a, rightPart), b)
		}
		if collect {
			dst = append(dst, Seg[V]{Lo: lo, Hi: end, Val: spill.val})
		}
		// Reuse the spill node for its remainder [spill.lo, lo) on the left.
		spill.hi = lo
		spill.left, spill.right = nil, nil
		spill.count = 1
		left = merge(left, spill)
	}
	// Step 2: segments starting in [lo, hi); only the max can extend past hi.
	if mid != nil {
		var max *node[V]
		mid, max = popMax(mid)
		if max.hi > hi {
			rightPart := t.newNode(hi, max.hi, max.val)
			a, b := split(right, hi)
			right = merge(merge(a, rightPart), b)
			max.hi = hi
		}
		mid = merge(mid, max.update())
		if collect {
			inorder(mid, func(n *node[V]) { dst = append(dst, Seg[V]{Lo: n.lo, Hi: n.hi, Val: n.val}) })
		}
		t.recycleAll(mid)
	}
	t.root = merge(left, right)
	// dst may have the spill first then mid segments — already in
	// ascending order because spill starts exactly at lo and mid segments
	// start at or after lo and do not overlap the spill.
	return dst
}

func popMax[V any](n *node[V]) (rest, max *node[V]) {
	if n.right == nil {
		rest = n.left
		n.left = nil
		n.count = 1
		return rest, n
	}
	n.right, max = popMax(n.right)
	return n.update(), max
}

func inorder[V any](n *node[V], f func(*node[V])) {
	if n == nil {
		return
	}
	inorder(n.left, f)
	f(n)
	inorder(n.right, f)
}

// Set maps [lo, hi) to v, replacing any previous contents of the range.
// When a segment is stored with exactly these bounds its value is
// overwritten in place, without restructuring the tree; a range that
// overlaps nothing is inserted without an extraction pass.
func (t *Tree[V]) Set(lo, hi uint64, v V) {
	if lo >= hi {
		return
	}
	if p := t.Exact(lo, hi); p != nil {
		*p = v
		return
	}
	if t.Overlaps(lo, hi) {
		t.extract(lo, hi, nil, false)
	}
	t.insertNode(lo, hi, v)
}

// Insert adds [lo, hi) → v without disturbing neighbours. It must not
// overlap an existing segment; use Set when replacement is intended.
func (t *Tree[V]) Insert(lo, hi uint64, v V) { t.insertNode(lo, hi, v) }

// Delete removes [lo, hi) from the map, trimming partial overlaps. A
// segment stored with exactly these bounds is unlinked in one descent.
func (t *Tree[V]) Delete(lo, hi uint64) {
	if root, n := removeExact(t.root, lo, hi); n != nil {
		t.root = root
		t.recycle(n)
		return
	}
	t.extract(lo, hi, nil, false)
}

// removeExact unlinks the node stored with exactly [lo, hi) from the
// subtree n, returning the subtree's new root and the removed node, or n
// and nil when no segment has those bounds.
func removeExact[V any](n *node[V], lo, hi uint64) (root, removed *node[V]) {
	switch {
	case n == nil:
		return nil, nil
	case lo < n.lo:
		n.left, removed = removeExact(n.left, lo, hi)
	case lo > n.lo:
		n.right, removed = removeExact(n.right, lo, hi)
	case n.hi == hi:
		return merge(n.left, n.right), n
	default:
		return n, nil
	}
	if removed != nil {
		n.update()
	}
	return n, removed
}

// Exact returns a pointer to the value of the segment stored with exactly
// the bounds [lo, hi), or nil when no such segment exists. The pointer is
// valid until the next mutation of the tree; callers may update the value
// through it but must not change the segment's bounds.
func (t *Tree[V]) Exact(lo, hi uint64) *V {
	for n := t.root; n != nil; {
		switch {
		case lo < n.lo:
			n = n.left
		case lo > n.lo:
			n = n.right
		case n.hi == hi:
			return &n.val
		default:
			return nil
		}
	}
	return nil
}

// Visit calls f for every stored segment overlapping [lo, hi), clipped to
// the range, in ascending order. f returning false stops the walk.
func (t *Tree[V]) Visit(lo, hi uint64, f func(Seg[V]) bool) {
	t.walk(lo, hi, func(n *node[V]) bool {
		return f(Seg[V]{Lo: maxU64(n.lo, lo), Hi: minU64(n.hi, hi), Val: n.val})
	})
}

// VisitPtr calls f for every stored segment overlapping [lo, hi), in
// ascending order, with the segment's full (unclipped) bounds and a
// pointer to its stored value so f can update the value in place. f must
// not mutate the tree, and the bounds must not change.
func (t *Tree[V]) VisitPtr(lo, hi uint64, f func(lo, hi uint64, v *V)) {
	t.walk(lo, hi, func(n *node[V]) bool {
		f(n.lo, n.hi, &n.val)
		return true
	})
}

// visitHook, when non-nil, receives the number of nodes each walk
// entered. Tests set it to pin walks at O(log n + k).
var visitHook func(entered int)

// walk is the one tree walk behind Visit, VisitPtr and the queries built
// on Visit.
func (t *Tree[V]) walk(lo, hi uint64, f func(*node[V]) bool) {
	entered := 0
	visit(t.root, lo, hi, &entered, f)
	if visitHook != nil {
		visitHook(entered)
	}
}

// visit calls f, in ascending order, for every node of the subtree n that
// overlaps [lo, hi); f returning false stops the walk. *entered counts the
// nodes the walk enters.
//
// Stored segments are disjoint and ordered by lo, so every segment in the
// left subtree of n ends at or before n.lo: the left subtree can overlap
// the range only when n.lo > lo, and the right one only when n.lo < hi.
func visit[V any](n *node[V], lo, hi uint64, entered *int, f func(*node[V]) bool) bool {
	if n == nil || lo >= hi {
		return true
	}
	*entered++
	if n.lo > lo && !visit(n.left, lo, hi, entered, f) {
		return false
	}
	if n.lo >= hi {
		return true
	}
	if n.hi > lo && !f(n) {
		return false
	}
	return visit(n.right, lo, hi, entered, f)
}

// Overlaps reports whether any stored segment overlaps [lo, hi).
func (t *Tree[V]) Overlaps(lo, hi uint64) bool {
	found := false
	t.Visit(lo, hi, func(Seg[V]) bool { found = true; return false })
	return found
}

// Covered reports whether [lo, hi) is entirely covered by stored segments
// (with no gaps).
func (t *Tree[V]) Covered(lo, hi uint64) bool {
	if lo >= hi {
		return true
	}
	next := lo
	ok := true
	t.Visit(lo, hi, func(s Seg[V]) bool {
		if s.Lo > next {
			ok = false
			return false
		}
		next = s.Hi
		return true
	})
	return ok && next >= hi
}

// Gaps returns the sub-ranges of [lo, hi) not covered by any segment,
// in ascending order.
func (t *Tree[V]) Gaps(lo, hi uint64) []Seg[struct{}] {
	var gaps []Seg[struct{}]
	next := lo
	t.Visit(lo, hi, func(s Seg[V]) bool {
		if s.Lo > next {
			gaps = append(gaps, Seg[struct{}]{Lo: next, Hi: s.Lo})
		}
		next = s.Hi
		return true
	})
	if next < hi {
		gaps = append(gaps, Seg[struct{}]{Lo: next, Hi: hi})
	}
	return gaps
}

// All returns every stored segment in ascending order.
func (t *Tree[V]) All() []Seg[V] {
	out := make([]Seg[V], 0, t.Len())
	inorder(t.root, func(n *node[V]) {
		out = append(out, Seg[V]{Lo: n.lo, Hi: n.hi, Val: n.val})
	})
	return out
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
