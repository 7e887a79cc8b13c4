package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistMatrixPropertyMatchesHaversine(t *testing.T) {
	// Every matrix entry agrees with the direct Haversine computation to
	// float32 rounding: the stored value is float32(Haversine), so the
	// error bound is one float32 ulp of the distance.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		pts := make([]Point, n)
		for i := range pts {
			// City-scale coordinates plus a few far-flung outliers.
			pts[i] = Point{Lat: -80 + rng.Float64()*160, Lon: -180 + rng.Float64()*360}
		}
		m := NewDistMatrix(pts)
		if m.Len() != n {
			return false
		}
		for trial := 0; trial < 50; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			want := Haversine(pts[i], pts[j])
			got := m.Dist(i, j)
			// float32 has a 24-bit significand: relative error ≤ 2⁻²⁴.
			tol := math.Max(want*1.2e-7, 1e-9)
			if math.Abs(got-want) > tol {
				t.Logf("(%d,%d): matrix %v vs haversine %v", i, j, got, want)
				return false
			}
			if m.Dist(i, j) != m.Dist(j, i) {
				return false // symmetry
			}
		}
		for i := 0; i < n; i++ {
			if m.Dist(i, i) != 0 {
				return false // zero diagonal
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDistMatrixPanicsOutOfRange(t *testing.T) {
	m := NewDistMatrix([]Point{{0, 0}, {1, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Dist(0, 2)
}
