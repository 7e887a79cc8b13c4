package qtable

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOverlayReadsThroughToBase(t *testing.T) {
	base := New(4)
	base.Set(0, 1, 2)
	base.Set(2, 3, -1)
	o := NewOverlay(base, 0)
	if o.Size() != 4 || o.Base() != Reader(base) {
		t.Fatal("Size/Base mismatch")
	}
	if o.Get(0, 1) != 2 || o.Get(2, 3) != -1 || o.Get(1, 1) != 0 {
		t.Fatal("empty overlay did not read through")
	}
	o.Set(0, 1, 9)
	if o.Get(0, 1) != 9 {
		t.Fatal("shadow value not returned")
	}
	if base.Get(0, 1) != 2 {
		t.Fatal("Set mutated the base (copy-on-write violated)")
	}
	// Unshadowed cell in a shadowed row still reads the base.
	if o.Get(0, 2) != base.Get(0, 2) {
		t.Fatal("shadowed row hid base cells")
	}
	o.Bump(2, 3, 0.5)
	if o.Get(2, 3) != -0.5 {
		t.Fatalf("Bump = %v, want -0.5", o.Get(2, 3))
	}
}

func TestOverlayArgMaxMergesLayers(t *testing.T) {
	base := New(3)
	base.Set(0, 0, 1)
	base.Set(0, 2, 5)
	o := NewOverlay(base, 0)
	// Promote action 1 above the base's best.
	o.Set(0, 1, 7)
	if e, ok := o.ArgMax(0, nil); !ok || e != 1 {
		t.Fatalf("ArgMax = %d,%v want 1", e, ok)
	}
	// Demote it below everything: base order resurfaces under the merge.
	o.Set(0, 1, -7)
	if e, ok := o.ArgMax(0, nil); !ok || e != 2 {
		t.Fatalf("ArgMax after demotion = %d,%v want 2", e, ok)
	}
	// Mask away the winner.
	if e, ok := o.ArgMax(0, func(a int) bool { return a != 2 }); !ok || e != 0 {
		t.Fatalf("masked ArgMax = %d,%v want 0", e, ok)
	}
	// Shadow a tie with the base's best: ties resolve to the lowest index.
	o.Set(0, 1, 5)
	ties := o.AppendArgMaxTies(0, nil, nil)
	if len(ties) != 2 || ties[0] != 1 || ties[1] != 2 {
		t.Fatalf("ties = %v", ties)
	}
	// Rows without overlay cells delegate to the base untouched.
	if e, ok := o.ArgMax(1, nil); !ok || e != 0 {
		t.Fatalf("unshadowed row ArgMax = %d,%v", e, ok)
	}
}

func TestOverlayEviction(t *testing.T) {
	base := New(8)
	o := NewOverlay(base, 4)
	// Fill rows 0..3 with one cell each, then overflow.
	for s := 0; s < 4; s++ {
		o.Set(s, 0, float64(s+1))
	}
	if o.Cells() != 4 || o.RowCount() != 4 || o.Evictions() != 0 {
		t.Fatalf("pre-eviction: cells=%d rows=%d ev=%d", o.Cells(), o.RowCount(), o.Evictions())
	}
	// Touch row 0 so row 1 becomes the LRU victim.
	_ = o.Get(0, 0)
	o.Set(4, 0, 9)
	if o.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", o.Evictions())
	}
	if o.HasRow(1) {
		t.Fatal("LRU row 1 survived eviction")
	}
	if !o.HasRow(0) || !o.HasRow(4) {
		t.Fatal("recently touched rows were evicted")
	}
	// Evicted cells fall back to the base.
	if o.Get(1, 0) != 0 {
		t.Fatalf("evicted cell reads %v, want base 0", o.Get(1, 0))
	}
	// A single row larger than the cap survives (no thrash).
	big := NewOverlay(base, 2)
	for e := 0; e < 5; e++ {
		big.Set(3, e, 1)
	}
	if big.RowCount() != 1 || big.Cells() != 5 {
		t.Fatalf("oversized row: rows=%d cells=%d", big.RowCount(), big.Cells())
	}
	if big.SizeBytes() <= 0 {
		t.Fatal("SizeBytes not positive for non-empty overlay")
	}
	big.Reset()
	if big.Cells() != 0 || big.RowCount() != 0 || big.HasRow(3) {
		t.Fatal("Reset left state behind")
	}
}

func TestOverlayExportDeltaReplaysOntoBase(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		base := New(n)
		for s := 0; s < n; s++ {
			for e := 0; e < n; e++ {
				base.Set(s, e, rng.NormFloat64())
			}
		}
		o := NewOverlay(base, 0)
		for i := 0; i < 3*n; i++ {
			o.Set(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
		}
		d := o.ExportDelta()
		if d.Len() != o.Cells() {
			return false
		}
		// Ops come out in deterministic (s, e) order.
		prevS, prevE := -1, -1
		ordered := true
		d.Each(func(s, e int, _ float64) {
			if s < prevS || (s == prevS && e <= prevE) {
				ordered = false
			}
			prevS, prevE = s, e
		})
		if !ordered {
			return false
		}
		// Replaying with alpha=1 onto a base clone reproduces the layered
		// reads exactly: q += 1·(target − q) = target.
		merged := base.Clone()
		merged.Merge(d, 1)
		for s := 0; s < n; s++ {
			for e := 0; e < n; e++ {
				if merged.Get(s, e) != o.Get(s, e) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlayPanics(t *testing.T) {
	base := New(3)
	o := NewOverlay(base, 0)
	for _, fn := range []func(){
		func() { o.Get(3, 0) },
		func() { o.Set(0, -1, 1) },
		func() { NewOverlay(nil, 0) },
		func() { NewOverlay((*Table)(nil), 0) },
		func() { NewOverlay(o, 0) },
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

// BenchmarkOverlayArgMax contrasts the unshadowed delegation path
// (the base table's masked scan) with the shadowed merged scan.
func BenchmarkOverlayArgMax(b *testing.B) {
	const n = 256
	base := New(n)
	rng := rand.New(rand.NewSource(7))
	for s := 0; s < n; s++ {
		for e := 0; e < n; e++ {
			base.Set(s, e, rng.NormFloat64())
		}
	}
	mask := func(e int) bool { return e%7 != 0 }
	b.Run("unshadowed", func(b *testing.B) {
		o := NewOverlay(base, 0)
		o.Set(0, 0, 1) // some overlay content, but not on the probed rows
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o.ArgMax(1+i%(n-1), mask)
		}
	})
	b.Run("shadowed", func(b *testing.B) {
		o := NewOverlay(base, 0)
		for s := 0; s < n; s++ {
			o.Set(s, s, 1)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o.ArgMax(i%n, mask)
		}
	})
}
