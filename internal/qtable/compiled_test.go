package qtable

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomValues fills a dense table with clustered values so exact ties
// are common (the tie-break path is the risky one).
func randomValues(rng *rand.Rand, n int) *Table {
	dense := New(n)
	vals := []float64{-2, -1, 0, 0.5, 1, 1, 2.5} // duplicates on purpose
	for s := 0; s < n; s++ {
		for e := 0; e < n; e++ {
			if rng.Float64() < 0.4 { // leave many zeros (sparse absences)
				continue
			}
			v := vals[rng.Intn(len(vals))]
			dense.Set(s, e, v)
		}
	}
	return dense
}

func randomMask(rng *rand.Rand, n int) func(int) bool {
	if rng.Float64() < 0.1 {
		return nil // nil mask = everything allowed
	}
	allowed := make([]bool, n)
	any := false
	for i := range allowed {
		allowed[i] = rng.Float64() < 0.6
		any = any || allowed[i]
	}
	if !any && rng.Float64() < 0.5 {
		allowed[rng.Intn(n)] = true
	}
	return func(e int) bool { return allowed[e] }
}

// TestCompiledMatchesTableArgMax drives Compiled against the reference
// Table scan over random dense tables, masks and prefix lengths —
// including k much smaller than n, so walks regularly exhaust the eager
// prefix and fall back to the lazy tail.
func TestCompiledMatchesTableArgMax(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(24)
		dense := randomValues(rng, n)
		k := 1 + rng.Intn(n)
		c := Compile(dense, k)
		for q := 0; q < 30; q++ {
			s := rng.Intn(n)
			mask := randomMask(rng, n)

			wantTies := dense.ArgMaxTies(s, mask)
			gotTies := c.AppendArgMaxTies(s, mask, nil)
			if !reflect.DeepEqual(wantTies, normalize(gotTies)) {
				t.Fatalf("trial %d: ArgMaxTies(s=%d,k=%d) = %v, want %v",
					trial, s, k, gotTies, wantTies)
			}

			wantBest, wantOK := dense.ArgMax(s, mask)
			gotBest, gotOK := c.ArgMax(s, mask)
			if wantOK != gotOK || (wantOK && wantBest != gotBest) {
				t.Fatalf("trial %d: ArgMax(s=%d,k=%d) = (%d,%v), want (%d,%v)",
					trial, s, k, gotBest, gotOK, wantBest, wantOK)
			}
		}
	}
}

// normalize maps an empty non-nil slice to nil so DeepEqual compares
// result sets, not append bookkeeping.
func normalize(ties []int) []int {
	if len(ties) == 0 {
		return nil
	}
	return ties
}

// TestCompiledReusesBuffer checks the append contract: results land in
// the caller's buffer without reallocating when capacity suffices.
func TestCompiledReusesBuffer(t *testing.T) {
	dense := New(4)
	dense.Set(0, 1, 5)
	dense.Set(0, 3, 5)
	c := Compile(dense, 2)
	buf := make([]int, 0, 8)
	got := c.AppendArgMaxTies(0, nil, buf)
	if want := []int{1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ties = %v, want %v", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("AppendArgMaxTies reallocated despite sufficient capacity")
	}
}

// TestCompiledConcurrentTailBuild hammers the lazy tail from many
// goroutines; run under -race this verifies the atomic publish (two
// builders may race, both compute the identical row, one wins).
func TestCompiledConcurrentTailBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dense := randomValues(rng, 32)
	c := Compile(dense, 2) // tiny prefix: every full walk needs the tail
	none := func(int) bool { return false }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < 32; s++ {
				if _, ok := c.ArgMax(s, none); ok {
					t.Error("ArgMax under an all-false mask returned ok")
				}
				got := c.AppendArgMaxTies(s, nil, nil)
				want := dense.ArgMaxTies(s, nil)
				if !reflect.DeepEqual(normalize(got), normalize(want)) {
					t.Errorf("state %d: %v != %v", s, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestUpdateBoundsCheck keeps Update's validation intact after the
// single-check rewrite: out-of-range indices must still panic.
func TestUpdateBoundsCheck(t *testing.T) {
	tbl := New(3)
	for _, idx := range [][4]int{
		{-1, 0, -1, -1}, {0, 3, -1, -1}, {0, 0, 3, 0}, {0, 0, 1, 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Update(%v) did not panic", idx)
				}
			}()
			tbl.Update(idx[0], idx[1], 0.5, 1, 0.9, idx[2], idx[3])
		}()
	}
	// The no-bootstrap sentinel (-1,-1) must keep working.
	if got := tbl.Update(0, 0, 0.5, 2, 0.9, -1, -1); got != 1 {
		t.Fatalf("Update terminal = %g, want 1", got)
	}
}
