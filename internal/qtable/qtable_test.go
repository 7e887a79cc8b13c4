package qtable

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGetSet(t *testing.T) {
	q := New(4)
	if q.Size() != 4 {
		t.Fatalf("Size = %d", q.Size())
	}
	q.Set(1, 2, 3.5)
	if q.Get(1, 2) != 3.5 {
		t.Fatalf("Get = %v", q.Get(1, 2))
	}
	if q.Get(2, 1) != 0 {
		t.Fatal("transpose entry should be untouched")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	q := New(3)
	for _, fn := range []func(){
		func() { q.Get(3, 0) },
		func() { q.Set(0, -1, 1) },
		func() { q.Row(3) },
		func() { New(-1) },
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

func TestUpdateEquation9(t *testing.T) {
	// Q(s,e) ← Q(s,e) + α[r + γQ(s',e') − Q(s,e)]
	q := New(3)
	q.Set(0, 1, 2)
	q.Set(1, 2, 4)
	got := q.Update(0, 1, 0.5, 1, 0.9, 1, 2)
	want := 2 + 0.5*(1+0.9*4-2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Update = %v, want %v", got, want)
	}
	if q.Get(0, 1) != got {
		t.Fatal("Update did not persist")
	}
}

func TestUpdateTerminal(t *testing.T) {
	// Negative next state/action = terminal: target is just r.
	q := New(2)
	q.Set(0, 1, 1)
	got := q.Update(0, 1, 0.5, 3, 0.9, -1, -1)
	want := 1 + 0.5*(3-1)
	if got != want {
		t.Fatalf("terminal Update = %v, want %v", got, want)
	}
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

func TestArgMax(t *testing.T) {
	q := New(4)
	q.Set(0, 1, 5)
	q.Set(0, 2, 7)
	q.Set(0, 3, 7)
	e, ok := q.ArgMax(0, nil)
	if !ok || e != 2 {
		t.Fatalf("ArgMax = %d,%v want 2 (lowest tie)", e, ok)
	}
	// Masked: exclude 2 → 3 wins.
	e, ok = q.ArgMax(0, func(a int) bool { return a != 2 })
	if !ok || e != 3 {
		t.Fatalf("masked ArgMax = %d,%v want 3", e, ok)
	}
	// Nothing allowed.
	if _, ok := q.ArgMax(0, func(int) bool { return false }); ok {
		t.Fatal("empty mask returned ok")
	}
}

func TestArgMaxNegativeValues(t *testing.T) {
	q := New(3)
	q.Set(0, 0, -5)
	q.Set(0, 1, -2)
	q.Set(0, 2, -9)
	e, ok := q.ArgMax(0, func(a int) bool { return a != 1 })
	if !ok || e != 0 {
		t.Fatalf("ArgMax over negatives = %d,%v want 0", e, ok)
	}
}

func TestArgMaxTies(t *testing.T) {
	q := New(4)
	q.Set(1, 0, 3)
	q.Set(1, 2, 3)
	q.Set(1, 3, 1)
	ties := q.ArgMaxTies(1, nil)
	if len(ties) != 2 || ties[0] != 0 || ties[1] != 2 {
		t.Fatalf("ties = %v", ties)
	}
	if ties := q.ArgMaxTies(1, func(int) bool { return false }); ties != nil {
		t.Fatalf("ties with empty mask = %v", ties)
	}
}

func TestRowCloneFill(t *testing.T) {
	q := New(3)
	q.Set(1, 2, 9)
	row := q.Row(1)
	row[0] = 42
	if q.Get(1, 0) == 42 {
		t.Fatal("Row leaked internal storage")
	}
	c := q.Clone()
	c.Set(0, 0, 7)
	if q.Get(0, 0) == 7 {
		t.Fatal("Clone shares storage")
	}
	q.Fill(1.5)
	if q.Get(2, 2) != 1.5 || q.Get(0, 0) != 1.5 {
		t.Fatal("Fill incomplete")
	}
	if q.MaxAbs() != 1.5 {
		t.Fatalf("MaxAbs = %v", q.MaxAbs())
	}
}

func TestPropertyUpdateContraction(t *testing.T) {
	// With r = 0, terminal next state and α ∈ (0,1], |Q| shrinks.
	f := func(v float64, aRaw uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		alpha := float64(aRaw%100+1) / 100
		q := New(1)
		q.Set(0, 0, v)
		got := q.Update(0, 0, alpha, 0, 0.9, -1, -1)
		return math.Abs(got) <= math.Abs(v)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyArgMaxIsMaximal(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		n := 2 + int(uint(seed)%20)
		q := New(n)
		for s := 0; s < n; s++ {
			for e := 0; e < n; e++ {
				q.Set(s, e, r.NormFloat64())
			}
		}
		s := int(uint(seed) % uint(n))
		e, ok := q.ArgMax(s, nil)
		if !ok {
			return false
		}
		for a := 0; a < n; a++ {
			if q.Get(s, a) > q.Get(s, e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUpdate(b *testing.B) {
	q := New(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Update(i%128, (i+1)%128, 0.75, 1, 0.95, (i+2)%128, (i+3)%128)
	}
}

func BenchmarkArgMaxMasked(b *testing.B) {
	q := New(128)
	r := rand.New(rand.NewSource(3))
	for s := 0; s < 128; s++ {
		for e := 0; e < 128; e++ {
			q.Set(s, e, r.NormFloat64())
		}
	}
	mask := func(e int) bool { return e%7 != 0 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.ArgMax(i%128, mask)
	}
}
