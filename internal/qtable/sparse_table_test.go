package qtable

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// newSparseTable forces the sparse representation regardless of n, so
// small catalogs (cheap to cross-check against dense) exercise exactly
// the code path 100k-item catalogs run.
func newSparseTable(n int) *Table {
	return &Table{n: n, rows: make([]oaRow, n)}
}

// TestSparseTableOpEquivalence drives a dense and a forced-sparse table
// through the same random mutation sequence — Set (including explicit
// zeros), SARSA Update chains, Delta merges at α=1 and fractional α,
// Fill(0), Clone — and demands bit-identical reads after every batch.
// This is the property behind the ≤ dense-threshold guarantee: the
// representations are interchangeable, not merely approximately equal.
func TestSparseTableOpEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		dense := New(n)
		sparse := newSparseTable(n)
		if dense.IsDense() != true || sparse.IsDense() != false {
			t.Log("representation selection broken")
			return false
		}
		vals := []float64{-2, -1, 0, 0.5, 1, 3}
		check := func(stage string) bool {
			for s := 0; s < n; s++ {
				for e := 0; e < n; e++ {
					if dv, sv := dense.Get(s, e), sparse.Get(s, e); dv != sv {
						t.Logf("%s: Get(%d,%d) dense=%v sparse=%v", stage, s, e, dv, sv)
						return false
					}
				}
			}
			if dm, sm := dense.MaxAbs(), sparse.MaxAbs(); dm != sm {
				t.Logf("%s: MaxAbs dense=%v sparse=%v", stage, dm, sm)
				return false
			}
			return true
		}
		for batch := 0; batch < 4; batch++ {
			switch rng.Intn(5) {
			case 0: // random Sets, zeros included
				for i := 0; i < 2*n; i++ {
					s, e, v := rng.Intn(n), rng.Intn(n), vals[rng.Intn(len(vals))]
					dense.Set(s, e, v)
					sparse.Set(s, e, v)
				}
			case 1: // SARSA update chain with bootstrap reads
				for i := 0; i < 2*n; i++ {
					s, e := rng.Intn(n), rng.Intn(n)
					sn, en := rng.Intn(n), rng.Intn(n)
					r := vals[rng.Intn(len(vals))]
					dv := dense.Update(s, e, 0.25, r, 0.9, sn, en)
					sv := sparse.Update(s, e, 0.25, r, 0.9, sn, en)
					if dv != sv {
						t.Logf("Update(%d,%d) dense=%v sparse=%v", s, e, dv, sv)
						return false
					}
				}
			case 2: // delta merge, mixed alphas
				d := NewDelta(n)
				for i := 0; i < n+1; i++ {
					d.Record(rng.Intn(n), rng.Intn(n), vals[rng.Intn(len(vals))])
				}
				alpha := []float64{1, 0.5}[rng.Intn(2)]
				dense.Merge(d, alpha)
				sparse.Merge(d, alpha)
			case 3: // clone, keep mutating the clone
				dense, sparse = dense.Clone(), sparse.Clone()
				if sparse.IsDense() {
					t.Log("Clone dropped the sparse representation")
					return false
				}
			case 4:
				dense.Fill(0)
				sparse.Fill(0)
			}
			if !check("after batch") {
				return false
			}
		}
		// Row materialization and stored-cell enumeration agree too.
		for s := 0; s < n; s++ {
			dr, sr := dense.Row(s), sparse.Row(s)
			for e := range dr {
				if dr[e] != sr[e] {
					t.Logf("Row(%d)[%d] dense=%v sparse=%v", s, e, dr[e], sr[e])
					return false
				}
			}
		}
		type cell struct {
			s, e int
			v    float64
		}
		var dc, sc []cell
		dense.EachStored(func(s, e int, v float64) { dc = append(dc, cell{s, e, v}) })
		sparse.EachStored(func(s, e int, v float64) { sc = append(sc, cell{s, e, v}) })
		if len(dc) != len(sc) {
			t.Logf("EachStored: dense %d cells, sparse %d", len(dc), len(sc))
			return false
		}
		for i := range dc {
			if dc[i] != sc[i] {
				t.Logf("EachStored[%d]: dense %+v sparse %+v", i, dc[i], sc[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseMemoryFollowsVisitedSet is the reason the representation
// exists: a barely-visited large table must cost orders of magnitude
// less than 8n², and Stored must count visited cells, not n².
func TestSparseMemoryFollowsVisitedSet(t *testing.T) {
	const n = 50_000
	q := New(n)
	if q.IsDense() {
		t.Fatalf("New(%d) chose dense above DefaultDenseMaxItems=%d", n, DefaultDenseMaxItems)
	}
	rng := rand.New(rand.NewSource(3))
	const visits = 10_000
	for i := 0; i < visits; i++ {
		q.Set(rng.Intn(n), rng.Intn(n), rng.Float64()+0.1)
	}
	if s := q.Stored(); s > visits {
		t.Fatalf("Stored = %d after %d visits", s, visits)
	}
	denseBytes := 8 * n * n
	if got := q.MemoryBytes(); got > denseBytes/100 {
		t.Fatalf("MemoryBytes = %d, want well under 1%% of dense %d", got, denseBytes)
	}
	tr := NewTiered(q)
	if got := tr.MemoryBytes(); got > denseBytes/100 {
		t.Fatalf("Tiered.MemoryBytes = %d, want well under 1%% of dense %d", got, denseBytes)
	}
}

// TestNewSelectsRepresentation pins the constructor thresholds,
// including the operator override.
func TestNewSelectsRepresentation(t *testing.T) {
	if !New(DefaultDenseMaxItems).IsDense() {
		t.Error("New at the threshold should be dense")
	}
	if New(DefaultDenseMaxItems + 1).IsDense() {
		t.Error("New above the threshold should be sparse")
	}
	if !NewWithDenseMax(500, 500).IsDense() {
		t.Error("NewWithDenseMax(500, 500) should be dense")
	}
	if NewWithDenseMax(501, 500).IsDense() {
		t.Error("NewWithDenseMax(501, 500) should be sparse")
	}
	if !NewWithDenseMax(4096, 0).IsDense() {
		t.Error("denseMax <= 0 should fall back to the default threshold")
	}
}

// TestSparseBasics pins the sparse form's storage accounting: only
// written cells are stored, and a zero written to an absent cell stores
// nothing, since absent already reads 0.
func TestSparseBasics(t *testing.T) {
	q := newSparseTable(4)
	if q.Size() != 4 || q.Stored() != 0 {
		t.Fatalf("fresh sparse table: size=%d stored=%d", q.Size(), q.Stored())
	}
	q.Set(1, 2, 3.5)
	if q.Get(1, 2) != 3.5 || q.Get(2, 1) != 0 {
		t.Fatal("Get/Set mismatch")
	}
	q.Set(2, 1, 0)
	if q.Stored() != 1 {
		t.Fatalf("stored = %d after one non-zero write and a zero write to an absent cell", q.Stored())
	}
	q.Set(1, 2, 0)
	if q.Get(1, 2) != 0 {
		t.Fatal("zero write over a stored cell still reads non-zero")
	}
}

func TestSparsePanics(t *testing.T) {
	q := newSparseTable(3)
	for _, fn := range []func(){
		func() { q.Get(3, 0) },
		func() { q.Set(0, -1, 1) },
		func() { q.Update(0, 0, 0.5, 1, 0.9, 3, 0) },
		func() { q.Row(3) },
		func() { NewWithDenseMax(-1, 1) },
		func() { Compile(q, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestSparseMatchesDenseUpdates interleaves Set, Update and masked
// ArgMax on a dense and a sparse-backed table: every Update returns the
// same value and every ArgMax the same action.
func TestSparseMatchesDenseUpdates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		dense := New(n)
		sparse := newSparseTable(n)
		for op := 0; op < 60; op++ {
			s, e := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				v := rng.NormFloat64()
				dense.Set(s, e, v)
				sparse.Set(s, e, v)
			case 1:
				sn, en := rng.Intn(n), rng.Intn(n)
				a, r, g := rng.Float64(), rng.NormFloat64(), rng.Float64()
				if dense.Update(s, e, a, r, g, sn, en) != sparse.Update(s, e, a, r, g, sn, en) {
					return false
				}
			case 2:
				var mask func(int) bool
				if rng.Intn(2) == 0 {
					banned := rng.Intn(n)
					mask = func(a int) bool { return a != banned }
				}
				de, dok := dense.ArgMax(s, mask)
				se, sok := sparse.ArgMax(s, mask)
				if de != se || dok != sok {
					return false
				}
			}
		}
		for s := 0; s < n; s++ {
			for e := 0; e < n; e++ {
				if dense.Get(s, e) != sparse.Get(s, e) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseArgMaxMatchesDense aims at the cases ArgMax's stored-slot
// fast path special-cases: all-negative rows (where an absent cell's
// implicit 0 wins), exact positive ties (lowest index wins), fully
// populated rows and restrictive masks.
func TestSparseArgMaxMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		dense := New(n)
		sparse := newSparseTable(n)
		// Values from a small discrete set force frequent exact ties; the
		// negative-leaning mix exercises the absent-beats-stored path.
		vals := []float64{-2, -1, -0.5, 0.5, 1, 2}
		fill := rng.Intn(3) // 0: sparse row, 1: dense-ish, 2: full
		for s := 0; s < n; s++ {
			for e := 0; e < n; e++ {
				if fill < 2 && rng.Intn(3) != fill {
					continue
				}
				v := vals[rng.Intn(len(vals))]
				dense.Set(s, e, v)
				sparse.Set(s, e, v)
			}
		}
		for trial := 0; trial < 2*n; trial++ {
			s := rng.Intn(n)
			var mask func(int) bool
			switch rng.Intn(3) {
			case 1:
				banned := rng.Intn(n)
				mask = func(a int) bool { return a != banned }
			case 2:
				keep := rng.Intn(n)
				mask = func(a int) bool { return a%(keep+1) == 0 }
			}
			de, dok := dense.ArgMax(s, mask)
			se, sok := sparse.ArgMax(s, mask)
			if de != se || dok != sok {
				t.Logf("n=%d s=%d: dense=(%d,%v) sparse=(%d,%v)", n, s, de, dok, se, sok)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAblationQStorage contrasts dense and sparse-backed storage on
// an institution-scale table under a SARSA-like access pattern.
func BenchmarkAblationQStorage(b *testing.B) {
	const n = 1216
	for _, tc := range []struct {
		name string
		mk   func(n int) *Table
	}{
		{"dense", New},
		{"sparse", newSparseTable},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q := tc.mk(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.Update(i%n, (i+7)%n, 0.75, 1, 0.95, (i+7)%n, (i+13)%n)
				q.ArgMax(i%n, nil)
			}
		})
	}
}
