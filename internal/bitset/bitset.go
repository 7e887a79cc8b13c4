// Package bitset provides a compact, fixed-width bit vector used to
// represent topic/theme coverage vectors (T^m in the paper). Vectors are
// value-comparable via Equal and cheap to copy; all set operations that
// return a new Set allocate exactly once.
//
// A Set has two interchangeable representations. The dense form backs
// every mutable vector: one uint64 word per 64 bits, word-parallel
// popcounts. Compact converts a sparse dense vector into the array form —
// a sorted list of set indices, the "array container" of roaring-style
// compressed bitmaps — which stores k set bits out of n in 4k bytes
// instead of n/8. Per-item topic vectors over institution-scale
// vocabularies are exactly this shape (a handful of topics out of
// 100k+), so the environment's per-item facts compact them. The array
// form is immutable: every read operation accepts either form on either
// side, mutators panic. Both forms compare equal via Equal when they
// hold the same bits.
package bitset

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

const wordBits = 64

// Set is a fixed-length bit vector. The zero value is an empty, zero-length
// set; use New to create a set of a given length.
//
// Exactly one of words/idx backs a non-zero-length Set: words for the
// dense form, idx (sorted, strictly increasing) for the immutable array
// form Compact produces.
type Set struct {
	n     int
	words []uint64
	idx   []int32
}

// New returns a Set of n bits, all zero. It panics if n is negative.
func New(n int) Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative length %d", n))
	}
	return Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIndices returns a Set of n bits with the given indices set.
// Indices out of [0, n) cause a panic.
func FromIndices(n int, idx ...int) Set {
	s := New(n)
	for _, i := range idx {
		s.Set(i)
	}
	return s
}

// FromBools returns a Set whose i-th bit is b[i]. Its length is len(b).
func FromBools(b []bool) Set {
	s := New(len(b))
	for i, v := range b {
		if v {
			s.Set(i)
		}
	}
	return s
}

// Len returns the number of bits in the set.
func (s Set) Len() int { return s.n }

// compact reports whether s is in the immutable array form.
func (s Set) compact() bool { return s.idx != nil }

// Compacted reports whether s is in the immutable array form (for tests
// and memory accounting; semantics never depend on the representation).
func (s Set) Compacted() bool { return s.compact() }

// compactMinWords is the dense size below which Compact refuses to
// convert: a vector of a few words is already as small as its header,
// and the word-parallel counting ops on it beat the array form's
// per-index loops in the episode hot path. Only institution-scale
// vocabularies (> 256 topics) are worth trading read shape for bytes.
const compactMinWords = 4

// Compact returns a set with the same bits in the representation that
// stores them smaller: the sorted-index array form when the vector is
// sparse (population × 32 < length, where the 4-byte indices undercut
// the n/8-byte word array) and the dense form is at least compactMinWords
// words, s itself otherwise. The array form shares no storage with s and
// is immutable — mutators panic on it — so compacted vectors are safe to
// share across environments and episodes.
func (s Set) Compact() Set {
	if s.compact() {
		return s
	}
	if len(s.words) <= compactMinWords {
		return s
	}
	c := s.Count()
	if c*wordBits/2 >= s.n {
		return s
	}
	idx := make([]int32, 0, c)
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			idx = append(idx, int32(wi*wordBits+b))
			w &= w - 1
		}
	}
	return Set{n: s.n, idx: idx}
}

// Dense returns a set with the same bits in the mutable dense form: s
// itself when already dense, otherwise a fresh word-backed copy.
func (s Set) Dense() Set {
	if !s.compact() {
		return s
	}
	d := New(s.n)
	for _, i := range s.idx {
		d.words[i/wordBits] |= 1 << uint(i%wordBits)
	}
	return d
}

// check panics when i is out of range.
func (s Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// mutable panics when s is in the immutable array form.
func (s Set) mutable() {
	if s.compact() {
		panic("bitset: mutating a compacted set (use Dense for a mutable copy)")
	}
}

// Set turns bit i on. It panics on a compacted set.
func (s Set) Set(i int) {
	s.check(i)
	s.mutable()
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear turns bit i off. It panics on a compacted set.
func (s Set) Clear(i int) {
	s.check(i)
	s.mutable()
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is on.
func (s Set) Test(i int) bool {
	s.check(i)
	return s.test(i)
}

// test is Test without the bounds check, for scans over validated ranges.
func (s Set) test(i int) bool {
	if s.compact() {
		j := sort.Search(len(s.idx), func(k int) bool { return s.idx[k] >= int32(i) })
		return j < len(s.idx) && s.idx[j] == int32(i)
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits (population count).
func (s Set) Count() int {
	if s.compact() {
		return len(s.idx)
	}
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s Set) Empty() bool {
	if s.compact() {
		return len(s.idx) == 0
	}
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s, preserving its representation.
func (s Set) Clone() Set {
	if s.compact() {
		return Set{n: s.n, idx: append([]int32(nil), s.idx...)}
	}
	c := Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// sameLen panics unless the two sets have equal length.
func (s Set) sameLen(t Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: length mismatch %d vs %d", s.n, t.n))
	}
}

// Union returns s ∪ t as a new Set. The result is dense unless both
// operands are compact, in which case it is the merged array form.
func (s Set) Union(t Set) Set {
	s.sameLen(t)
	if s.compact() && t.compact() {
		idx := make([]int32, 0, len(s.idx)+len(t.idx))
		i, j := 0, 0
		for i < len(s.idx) && j < len(t.idx) {
			switch {
			case s.idx[i] < t.idx[j]:
				idx = append(idx, s.idx[i])
				i++
			case s.idx[i] > t.idx[j]:
				idx = append(idx, t.idx[j])
				j++
			default:
				idx = append(idx, s.idx[i])
				i, j = i+1, j+1
			}
		}
		idx = append(idx, s.idx[i:]...)
		idx = append(idx, t.idx[j:]...)
		return Set{n: s.n, idx: idx}
	}
	if s.compact() {
		return t.Union(s)
	}
	u := s.Clone()
	u.UnionInPlace(t)
	return u
}

// UnionInPlace sets s = s ∪ t without allocating. The receiver must be
// dense; t may be in either form (folding a compacted per-item topic
// vector into a dense running-coverage vector is the episode hot path,
// O(population of t)).
func (s Set) UnionInPlace(t Set) {
	s.sameLen(t)
	s.mutable()
	if t.compact() {
		for _, i := range t.idx {
			s.words[i/wordBits] |= 1 << uint(i%wordBits)
		}
		return
	}
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// DifferenceInPlace sets s = s \ t without allocating. The receiver
// must be dense; t may be in either form. A compact t costs
// O(population of t), not O(length): clearing a few topics from a
// vocabulary-wide vector visits only their words.
func (s Set) DifferenceInPlace(t Set) {
	s.sameLen(t)
	s.mutable()
	if t.compact() {
		for _, i := range t.idx {
			s.words[i/wordBits] &^= 1 << uint(i%wordBits)
		}
		return
	}
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Intersect returns s ∩ t as a new Set. A compact operand yields a
// compact result (the intersection can only be sparser).
func (s Set) Intersect(t Set) Set {
	s.sameLen(t)
	if s.compact() {
		idx := make([]int32, 0, len(s.idx))
		for _, i := range s.idx {
			if t.test(int(i)) {
				idx = append(idx, i)
			}
		}
		return Set{n: s.n, idx: idx}
	}
	if t.compact() {
		return t.Intersect(s)
	}
	u := Set{n: s.n, words: make([]uint64, len(s.words))}
	for i := range s.words {
		u.words[i] = s.words[i] & t.words[i]
	}
	return u
}

// Difference returns s \ t as a new Set, in s's representation.
func (s Set) Difference(t Set) Set {
	s.sameLen(t)
	if s.compact() {
		idx := make([]int32, 0, len(s.idx))
		for _, i := range s.idx {
			if !t.test(int(i)) {
				idx = append(idx, i)
			}
		}
		return Set{n: s.n, idx: idx}
	}
	if t.compact() {
		u := s.Clone()
		for _, i := range t.idx {
			u.words[i/wordBits] &^= 1 << uint(i%wordBits)
		}
		return u
	}
	u := Set{n: s.n, words: make([]uint64, len(s.words))}
	for i := range s.words {
		u.words[i] = s.words[i] &^ t.words[i]
	}
	return u
}

// wordTest reports whether bit i is set in a dense word array. It is the
// inlinable kernel the compact×dense count loops use instead of the test
// method, whose call (and 56-byte receiver copy) would otherwise run once
// per set index per candidate in the episode hot path.
func wordTest(words []uint64, i int32) bool {
	return words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// CountIntersect returns |s ∩ t| without allocating. It is the pointer
// form of IntersectCount for per-candidate hot loops: a Set header is 7
// words, so the value method spills both operands to the stack at every
// call under the register ABI. The dense×dense word loop is kept small
// enough for the inliner, so the common case compiles to a loop at the
// call site with no call at all.
func CountIntersect(s, t *Set) int {
	if s.idx == nil && t.idx == nil {
		if s.n != t.n {
			panicLen(s.n, t.n)
		}
		c := 0
		for i, w := range s.words {
			c += bits.OnesCount64(w & t.words[i])
		}
		return c
	}
	return countIntersectMixed(s, t)
}

// panicLen reports a length mismatch out of line, keeping the callers'
// fast paths under the inline budget.
func panicLen(n, m int) {
	panic(fmt.Sprintf("bitset: length mismatch %d vs %d", n, m))
}

// countIntersectMixed handles the representation-mixed cases of
// CountIntersect.
func countIntersectMixed(s, t *Set) int {
	s.sameLen(*t)
	if s.compact() {
		c := 0
		if !t.compact() {
			for _, i := range s.idx {
				if wordTest(t.words, i) {
					c++
				}
			}
			return c
		}
		for _, i := range s.idx {
			if t.test(int(i)) {
				c++
			}
		}
		return c
	}
	return countIntersectMixed(t, s)
}

// AppendIntersection appends the indices of s ∩ t to dst in increasing
// order and returns the extended slice. It is the allocation-free
// enumeration of a small intersection (a plan item's ideal topics):
// one test per index of a compact operand, a word loop otherwise.
// Pointer operands, as in CountIntersect.
func AppendIntersection(dst []int32, s, t *Set) []int32 {
	if s.n != t.n {
		panicLen(s.n, t.n)
	}
	switch {
	case s.compact():
		for _, i := range s.idx {
			if t.test(int(i)) {
				dst = append(dst, i)
			}
		}
	case t.compact():
		for _, i := range t.idx {
			if wordTest(s.words, i) {
				dst = append(dst, i)
			}
		}
	default:
		for wi, w := range s.words {
			w &= t.words[wi]
			for w != 0 {
				dst = append(dst, int32(wi*wordBits+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	}
	return dst
}

// IntersectCount returns |s ∩ t| without allocating.
func (s Set) IntersectCount(t Set) int {
	s.sameLen(t)
	return CountIntersect(&s, &t)
}

// CountDifference returns |s \ t| without allocating — the pointer form
// of DifferenceCount (see CountIntersect for why it exists and for the
// inlining shape).
func CountDifference(s, t *Set) int {
	if s.idx == nil && t.idx == nil {
		if s.n != t.n {
			panicLen(s.n, t.n)
		}
		c := 0
		for i, w := range s.words {
			c += bits.OnesCount64(w &^ t.words[i])
		}
		return c
	}
	return countDifferenceMixed(s, t)
}

// countDifferenceMixed handles the representation-mixed cases of
// CountDifference.
func countDifferenceMixed(s, t *Set) int {
	s.sameLen(*t)
	if s.compact() {
		c := 0
		if !t.compact() {
			for _, i := range s.idx {
				if !wordTest(t.words, i) {
					c++
				}
			}
			return c
		}
		for _, i := range s.idx {
			if !t.test(int(i)) {
				c++
			}
		}
		return c
	}
	return s.Count() - countIntersectMixed(t, s)
}

// DifferenceCount returns |s \ t| without allocating.
func (s Set) DifferenceCount(t Set) int {
	s.sameLen(t)
	return CountDifference(&s, &t)
}

// NewCoverage returns |ideal ∩ (s \ t)|: the number of ideal topics that s
// covers beyond what t already covers. This is the quantity gated by ε in
// Equation 3 of the paper, with t playing the role of T_current before the
// action and s the coverage after it.
func (s Set) NewCoverage(t, ideal Set) int {
	s.sameLen(t)
	s.sameLen(ideal)
	if s.compact() {
		c := 0
		if !t.compact() && !ideal.compact() {
			for _, i := range s.idx {
				if !wordTest(t.words, i) && wordTest(ideal.words, i) {
					c++
				}
			}
			return c
		}
		for _, i := range s.idx {
			if !t.test(int(i)) && ideal.test(int(i)) {
				c++
			}
		}
		return c
	}
	if ideal.compact() {
		c := 0
		if !s.compact() && !t.compact() {
			for _, i := range ideal.idx {
				if wordTest(s.words, i) && !wordTest(t.words, i) {
					c++
				}
			}
			return c
		}
		for _, i := range ideal.idx {
			if s.test(int(i)) && !t.test(int(i)) {
				c++
			}
		}
		return c
	}
	if t.compact() {
		// |ideal ∩ s| − |ideal ∩ s ∩ t|, the second term over t's indices.
		c := s.IntersectCount(ideal)
		for _, i := range t.idx {
			if s.test(int(i)) && ideal.test(int(i)) {
				c--
			}
		}
		return c
	}
	c := 0
	for i := range s.words {
		c += bits.OnesCount64((s.words[i] &^ t.words[i]) & ideal.words[i])
	}
	return c
}

// Equal reports whether s and t have the same length and the same bits,
// whatever representation each side uses.
func (s Set) Equal(t Set) bool {
	if s.n != t.n {
		return false
	}
	if s.compact() != t.compact() {
		if !s.compact() {
			return t.Equal(s)
		}
		if len(s.idx) != t.Count() {
			return false
		}
		for _, i := range s.idx {
			if !t.test(int(i)) {
				return false
			}
		}
		return true
	}
	if s.compact() {
		if len(s.idx) != len(t.idx) {
			return false
		}
		for i := range s.idx {
			if s.idx[i] != t.idx[i] {
				return false
			}
		}
		return true
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every bit of s is also set in t.
func (s Set) SubsetOf(t Set) bool {
	s.sameLen(t)
	if s.compact() {
		for _, i := range s.idx {
			if !t.test(int(i)) {
				return false
			}
		}
		return true
	}
	if t.compact() {
		return s.DifferenceCount(t) == 0
	}
	for i := range s.words {
		if s.words[i]&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Indices returns the positions of the set bits in increasing order.
func (s Set) Indices() []int {
	if s.compact() {
		out := make([]int, len(s.idx))
		for i, v := range s.idx {
			out[i] = int(v)
		}
		return out
	}
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// SizeBytes estimates the resident memory of the set's backing storage —
// the figure the scale bench sums per structure.
func (s Set) SizeBytes() int {
	return len(s.words)*8 + len(s.idx)*4
}

// String renders the set as a 0/1 vector, e.g. "[0,1,1,0]", matching the
// paper's notation for topic vectors.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < s.n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		if s.test(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	b.WriteByte(']')
	return b.String()
}

// MarshalJSON encodes the set as a JSON array of 0/1 integers.
func (s Set) MarshalJSON() ([]byte, error) {
	out := make([]byte, 0, 2*s.n+2)
	out = append(out, '[')
	for i := 0; i < s.n; i++ {
		if i > 0 {
			out = append(out, ',')
		}
		if s.test(i) {
			out = append(out, '1')
		} else {
			out = append(out, '0')
		}
	}
	return append(out, ']'), nil
}

// UnmarshalJSON decodes a JSON array of 0/1 integers into the dense form.
func (s *Set) UnmarshalJSON(data []byte) error {
	var raw []int
	if err := unmarshalIntSlice(data, &raw); err != nil {
		return err
	}
	*s = New(len(raw))
	for i, v := range raw {
		switch v {
		case 0:
		case 1:
			s.Set(i)
		default:
			return fmt.Errorf("bitset: element %d is %d, want 0 or 1", i, v)
		}
	}
	return nil
}
