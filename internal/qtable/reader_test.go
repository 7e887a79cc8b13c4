package qtable

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// readersFromDense builds every Reader implementation over the same
// logical contents as the dense table: a sparse-backed Table (the
// representation forced regardless of n), an empty overlay on dense and
// sparse-backed tables, and an overlay on the dense table whose shadow
// cells happen to equal the base values (shadowed-but-identical rows
// must not change results).
func readersFromDense(dense *Table, rng *rand.Rand) map[string]Reader {
	n := dense.Size()
	sparseTable := newSparseTable(n)
	dense.EachStored(sparseTable.Set)
	shadow := NewOverlay(dense, 0)
	for s := 0; s < n; s++ {
		if rng.Intn(2) == 0 {
			continue
		}
		for trial := 0; trial < 2; trial++ {
			e := rng.Intn(n)
			shadow.Set(s, e, dense.Get(s, e))
		}
	}
	return map[string]Reader{
		"table":          dense,
		"table/oarows":   sparseTable,
		"overlay/table":  NewOverlay(dense, 0),
		"overlay/sparse": NewOverlay(sparseTable, 0),
		"overlay/shadow": shadow,
	}
}

// TestReaderEquivalence is the cross-implementation equivalence
// property: every Reader — dense table, sparse-backed table, and
// overlays (empty and value-identical shadows) — returns the same Get,
// ArgMax and AppendArgMaxTies results under random contents and masks.
func TestReaderEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(14)
		dense := New(n)
		// Discrete values force frequent exact ties; the negative lean
		// exercises absent-entry-wins paths in the sparse fast path.
		vals := []float64{-2, -1, -0.5, 0, 0.5, 1, 2}
		for s := 0; s < n; s++ {
			for e := 0; e < n; e++ {
				dense.Set(s, e, vals[rng.Intn(len(vals))])
			}
		}
		readers := readersFromDense(dense, rng)
		for trial := 0; trial < 3*n; trial++ {
			s := rng.Intn(n)
			var mask func(int) bool
			switch rng.Intn(4) {
			case 1:
				banned := rng.Intn(n)
				mask = func(a int) bool { return a != banned }
			case 2:
				mod := 1 + rng.Intn(n)
				mask = func(a int) bool { return a%mod == 0 }
			case 3:
				mask = func(a int) bool { return false }
			}
			wantE, wantOK := dense.ArgMax(s, mask)
			wantTies := dense.AppendArgMaxTies(s, mask, nil)
			e := rng.Intn(n)
			wantV := dense.Get(s, e)
			for name, r := range readers {
				if r.Size() != n {
					t.Logf("%s: Size = %d, want %d", name, r.Size(), n)
					return false
				}
				if v := r.Get(s, e); v != wantV {
					t.Logf("%s: Get(%d,%d) = %v, want %v", name, s, e, v, wantV)
					return false
				}
				gotE, gotOK := r.ArgMax(s, mask)
				if gotE != wantE || gotOK != wantOK {
					t.Logf("%s: ArgMax(%d) = (%d,%v), want (%d,%v)", name, s, gotE, gotOK, wantE, wantOK)
					return false
				}
				gotTies := r.AppendArgMaxTies(s, mask, nil)
				if len(gotTies) != len(wantTies) {
					t.Logf("%s: ties(%d) = %v, want %v", name, s, gotTies, wantTies)
					return false
				}
				for i := range gotTies {
					if gotTies[i] != wantTies[i] {
						t.Logf("%s: ties(%d) = %v, want %v", name, s, gotTies, wantTies)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendArgMaxTiesReusesBuffer pins the allocation-free contract:
// appending into a buffer with spare capacity must not reallocate and
// must preserve the prefix before the mark.
func TestAppendArgMaxTiesReusesBuffer(t *testing.T) {
	q := New(4)
	q.Set(0, 1, 3)
	q.Set(0, 3, 3)
	buf := make([]int, 1, 8)
	buf[0] = 99
	got := q.AppendArgMaxTies(0, nil, buf)
	if &got[0] != &buf[0] {
		t.Fatal("AppendArgMaxTies reallocated despite spare capacity")
	}
	if len(got) != 3 || got[0] != 99 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("AppendArgMaxTies = %v", got)
	}
}

// TestReaderZeroAllocReads pins the serving hot path at zero
// allocations per step for every Reader implementation: the scan
// closures must not escape, and the tie buffer must be reused, not
// regrown. A regression here silently turns every recommendation walk
// into a per-step allocator.
func TestReaderZeroAllocReads(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 24
	dense := New(n)
	for s := 0; s < n; s++ {
		for e := 0; e < n; e++ {
			dense.Set(s, e, float64(rng.Intn(9)-4))
		}
	}
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = i%3 != 0
	}
	allowed := func(e int) bool { return mask[e] }
	buf := make([]int, 0, n)
	for name, r := range readersFromDense(dense, rng) {
		r := r
		for op, fn := range map[string]func(){
			"Get":    func() { _ = r.Get(3, 5) },
			"ArgMax": func() { _, _ = r.ArgMax(3, allowed) },
			"Ties":   func() { buf = r.AppendArgMaxTies(3, allowed, buf[:0]) },
		} {
			if avg := testing.AllocsPerRun(100, fn); avg != 0 {
				t.Errorf("%s.%s: %.1f allocs/op, want 0", name, op, avg)
			}
		}
	}
}

// referenceArgMax is the masked arg-max by definition: the allowed
// action of largest value, the lowest index on ties, every allowed cell
// read.
func referenceArgMax(r Reader, s int, allowed func(int) bool) (int, bool) {
	var best float64
	e, found := -1, false
	for a := 0; a < r.Size(); a++ {
		if allowed != nil && !allowed(a) {
			continue
		}
		if v := r.Get(s, a); !found || v > best {
			best, e, found = v, a, true
		}
	}
	return e, found
}

// TestArgMaxMatchesMaskedScan checks ArgMax's early exits against the
// masked scan on every Reader, over rows that are all negative, negative
// and zero, mixed, or all positive, under masks that admit everything, a
// random subset, only non-positive cells (rejecting every positive one),
// only negative cells, or nothing.
func TestArgMaxMatchesMaskedScan(t *testing.T) {
	rowKinds := [][]float64{
		{-2, -1, -0.5},
		{-1, -0.5, 0},
		{-1, 0, 0.5, 1, 2},
		{0.5, 1, 2},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		dense := New(n)
		for s := 0; s < n; s++ {
			vals := rowKinds[rng.Intn(len(rowKinds))]
			for e := 0; e < n; e++ {
				dense.Set(s, e, vals[rng.Intn(len(vals))])
			}
		}
		readers := readersFromDense(dense, rng)
		for trial := 0; trial < 2*n; trial++ {
			s := rng.Intn(n)
			subset := make([]bool, n)
			for a := range subset {
				subset[a] = rng.Intn(3) > 0
			}
			masks := map[string]func(int) bool{
				"all":          nil,
				"subset":       func(a int) bool { return subset[a] },
				"non-positive": func(a int) bool { return subset[a] && dense.Get(s, a) <= 0 },
				"negative":     func(a int) bool { return dense.Get(s, a) < 0 },
				"none":         func(int) bool { return false },
			}
			for mName, mask := range masks {
				wantE, wantOK := referenceArgMax(dense, s, mask)
				for name, r := range readers {
					if e, ok := r.ArgMax(s, mask); e != wantE || ok != wantOK {
						t.Logf("%s, mask %s: ArgMax(%d) = (%d,%v), masked scan (%d,%v), row %v",
							name, mName, s, e, ok, wantE, wantOK, dense.Row(s))
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestArgMaxStopsAtFirstAllowedZero pins the early exit's cost: on a row
// with no positive cell ArgMax returns the first allowed zero and asks
// the mask nothing past it — on an empty sparse row, the first allowed
// index. Row 7 holds one negative cell, which the scan passes over.
func TestArgMaxStopsAtFirstAllowedZero(t *testing.T) {
	const n = 1000
	dense, sparse := New(n), newSparseTable(n)
	dense.Set(7, 1, -1)
	sparse.Set(7, 1, -1)
	for name, r := range map[string]Reader{
		"table":          dense,
		"table/oarows":   sparse,
		"overlay/oarows": NewOverlay(sparse, 0),
	} {
		for _, tc := range []struct{ s, from, want int }{{9, 3, 3}, {7, 1, 2}} {
			calls := 0
			e, ok := r.ArgMax(tc.s, func(a int) bool { calls++; return a >= tc.from })
			if e != tc.want || !ok || calls > tc.want+1 {
				t.Errorf("%s row %d: ArgMax = (%d,%v) after %d mask calls, want (%d,true) after at most %d",
					name, tc.s, e, ok, calls, tc.want, tc.want+1)
			}
		}
	}
}
