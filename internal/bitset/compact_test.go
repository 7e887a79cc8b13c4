package bitset

import (
	"math/rand"
	"testing"
)

// randomDensitySet draws a dense set of length n whose density varies
// from near-empty to near-full, so the property sweep covers both sides
// of the Compact threshold.
func randomDensitySet(rng *rand.Rand, n int) Set {
	s := New(n)
	if n == 0 {
		return s
	}
	density := rng.Float64() * rng.Float64() // biased toward sparse
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			s.Set(i)
		}
	}
	return s
}

// forced returns the dense and array representations of s regardless of
// density, so every (rep, rep) pairing is exercised even when Compact
// would decline the conversion.
func forced(s Set) [2]Set {
	dense := s.Dense()
	c := s.Count()
	idx := make([]int32, 0, c)
	for _, i := range dense.Indices() {
		idx = append(idx, int32(i))
	}
	return [2]Set{dense, {n: s.n, idx: idx}}
}

// TestCompactEquivalence pins every read operation to identical results
// across all four representation pairings of random operand sets — the
// compressed form must be observationally indistinguishable from the
// dense one.
func TestCompactEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		a, b, ideal := randomDensitySet(rng, n), randomDensitySet(rng, n), randomDensitySet(rng, n)
		ar, br, ir := forced(a), forced(b), forced(ideal)

		wantUnion := a.Union(b)
		wantInter := a.Intersect(b)
		wantDiff := a.Difference(b)
		wantIC := a.IntersectCount(b)
		wantDC := a.DifferenceCount(b)
		wantSub := a.SubsetOf(b)
		wantStr := a.String()

		for ai, av := range ar {
			if got := av.Count(); got != a.Count() {
				t.Fatalf("trial %d rep %d: Count = %d, want %d", trial, ai, got, a.Count())
			}
			if got := av.Empty(); got != a.Empty() {
				t.Fatalf("trial %d rep %d: Empty = %v", trial, ai, got)
			}
			if got := av.String(); got != wantStr {
				t.Fatalf("trial %d rep %d: String = %s, want %s", trial, ai, got, wantStr)
			}
			if got, want := av.Indices(), a.Indices(); len(got) != len(want) {
				t.Fatalf("trial %d rep %d: Indices len %d, want %d", trial, ai, len(got), len(want))
			}
			for i := 0; i < n; i++ {
				if av.Test(i) != a.Test(i) {
					t.Fatalf("trial %d rep %d: Test(%d) mismatch", trial, ai, i)
				}
			}
			clone := av.Clone()
			if !clone.Equal(a) {
				t.Fatalf("trial %d rep %d: Clone not Equal to original", trial, ai)
			}
			for bi, bv := range br {
				tag := func(op string) string { return op }
				if got := av.Union(bv); !got.Equal(wantUnion) {
					t.Fatalf("trial %d reps (%d,%d): %s mismatch", trial, ai, bi, tag("Union"))
				}
				if got := av.Intersect(bv); !got.Equal(wantInter) {
					t.Fatalf("trial %d reps (%d,%d): %s mismatch", trial, ai, bi, tag("Intersect"))
				}
				if got := av.Difference(bv); !got.Equal(wantDiff) {
					t.Fatalf("trial %d reps (%d,%d): %s mismatch", trial, ai, bi, tag("Difference"))
				}
				if got := av.IntersectCount(bv); got != wantIC {
					t.Fatalf("trial %d reps (%d,%d): IntersectCount = %d, want %d", trial, ai, bi, got, wantIC)
				}
				if got := av.DifferenceCount(bv); got != wantDC {
					t.Fatalf("trial %d reps (%d,%d): DifferenceCount = %d, want %d", trial, ai, bi, got, wantDC)
				}
				if got := av.SubsetOf(bv); got != wantSub {
					t.Fatalf("trial %d reps (%d,%d): SubsetOf = %v, want %v", trial, ai, bi, got, wantSub)
				}
				if got := av.Equal(bv); got != a.Equal(b) {
					t.Fatalf("trial %d reps (%d,%d): Equal = %v, want %v", trial, ai, bi, got, a.Equal(b))
				}
				// UnionInPlace requires a dense receiver; both argument reps
				// must agree with the allocating union.
				dst := av.Dense().Clone()
				dst.UnionInPlace(bv)
				if !dst.Equal(wantUnion) {
					t.Fatalf("trial %d reps (%d,%d): UnionInPlace mismatch", trial, ai, bi)
				}
				// DifferenceInPlace likewise, and AppendIntersection lists
				// the allocating intersection's indices.
				dst = av.Dense().Clone()
				dst.DifferenceInPlace(bv)
				if !dst.Equal(wantDiff) {
					t.Fatalf("trial %d reps (%d,%d): DifferenceInPlace mismatch", trial, ai, bi)
				}
				got := AppendIntersection(nil, &av, &bv)
				if want := wantInter.Indices(); len(got) != len(want) {
					t.Fatalf("trial %d reps (%d,%d): AppendIntersection = %v, want %v", trial, ai, bi, got, want)
				} else {
					for k := range want {
						if int(got[k]) != want[k] {
							t.Fatalf("trial %d reps (%d,%d): AppendIntersection = %v, want %v", trial, ai, bi, got, want)
						}
					}
				}
				for ii, iv := range ir {
					want := a.NewCoverage(b, ideal)
					if got := av.NewCoverage(bv, iv); got != want {
						t.Fatalf("trial %d reps (%d,%d,%d): NewCoverage = %d, want %d",
							trial, ai, bi, ii, got, want)
					}
				}
			}
		}
	}
}

// TestCompactSelection pins the density rule: Compact converts only when
// the array form is smaller, and the result is immutable.
func TestCompactSelection(t *testing.T) {
	sparse := FromIndices(1024, 3, 77, 500)
	c := sparse.Compact()
	if !c.Compacted() {
		t.Fatalf("sparse 3/1024 set did not compact")
	}
	if c.SizeBytes() >= sparse.SizeBytes() {
		t.Fatalf("compact form (%d bytes) not smaller than dense (%d bytes)",
			c.SizeBytes(), sparse.SizeBytes())
	}
	if !c.Equal(sparse) || !sparse.Equal(c) {
		t.Fatalf("compacted set not Equal to its dense source")
	}
	if cc := c.Compact(); !cc.Compacted() || !cc.Equal(c) {
		t.Fatalf("Compact of a compacted set changed it")
	}

	dense := New(64)
	for i := 0; i < 48; i++ {
		dense.Set(i)
	}
	if dense.Compact().Compacted() {
		t.Fatalf("48/64 set compacted; array form would be larger")
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("Set on a compacted set did not panic")
		}
	}()
	c.Set(9)
}

// TestCompactRoundTrip pins Dense∘Compact as the identity on bits.
func TestCompactRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		s := randomDensitySet(rng, rng.Intn(300))
		r := forced(s)[1].Dense()
		if !r.Equal(s) {
			t.Fatalf("trial %d: Dense(Compact(s)) != s", trial)
		}
	}
}

// FuzzCompactOps cross-checks the compressed form against the dense one
// on fuzz-chosen bit patterns.
func FuzzCompactOps(f *testing.F) {
	f.Add([]byte{0x01, 0x80}, []byte{0xff, 0x00})
	f.Add([]byte{}, []byte{0x10})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		n := 8 * len(ab)
		if 8*len(bb) > n {
			n = 8 * len(bb)
		}
		if n == 0 || n > 4096 {
			return
		}
		fromBytes := func(p []byte) Set {
			s := New(n)
			for i, by := range p {
				for b := 0; b < 8; b++ {
					if by&(1<<b) != 0 {
						s.Set(8*i + b)
					}
				}
			}
			return s
		}
		a, b := fromBytes(ab), fromBytes(bb)
		ca, cb := forced(a)[1], forced(b)[1]
		if got, want := ca.IntersectCount(cb), a.IntersectCount(b); got != want {
			t.Fatalf("IntersectCount = %d, want %d", got, want)
		}
		if got, want := ca.DifferenceCount(cb), a.DifferenceCount(b); got != want {
			t.Fatalf("DifferenceCount = %d, want %d", got, want)
		}
		if !ca.Union(cb).Equal(a.Union(b)) {
			t.Fatalf("Union mismatch")
		}
		if !ca.Intersect(cb).Equal(a.Intersect(b)) {
			t.Fatalf("Intersect mismatch")
		}
		if !ca.Difference(cb).Equal(a.Difference(b)) {
			t.Fatalf("Difference mismatch")
		}
	})
}
