package geo

import (
	"math/rand"
	"testing"
)

func randomCity(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		// A ~city-sized box around a mid-latitude center, with a few
		// clusters so the grid sees non-uniform density.
		cx := 48.8 + rng.Float64()*0.02
		cy := 2.3 + rng.Float64()*0.02
		if rng.Intn(3) == 0 {
			cx += 0.15
			cy -= 0.1
		}
		pts[i] = Point{Lat: cx + rng.NormFloat64()*0.01, Lon: cy + rng.NormFloat64()*0.01}
	}
	return pts
}

// TestNewDistStoreTiers pins representation selection by catalog size:
// exact matrix through the matrix cap, exact per-call Haversine through
// the dense threshold, quantized neighbor bands beyond.
func TestNewDistStoreTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, ok := NewDistStore(randomCity(rng, DefaultDistMatrixMaxItems)).(*DistMatrix); !ok {
		t.Error("catalog at the matrix cap should use the exact matrix")
	}
	if _, ok := NewDistStore(randomCity(rng, DefaultDistMatrixMaxItems+1)).(HaversineStore); !ok {
		t.Error("catalog above the matrix cap should use per-call Haversine")
	}
	big := make([]Point, DefaultExactHaversineMaxItems+1)
	for i := range big {
		big[i] = Point{Lat: float64(i%100) * 0.001, Lon: float64(i/100) * 0.001}
	}
	if _, ok := NewDistStore(big).(*NeighborStore); !ok {
		t.Error("catalog above the exact threshold should use the neighbor store")
	}
}

// TestExactTiersMatchHaversine pins bit-exactness of the sub-threshold
// tiers: the matrix stores float32 (the historical representation, a
// documented rounding), the mid tier is the very same Haversine call.
func TestExactTiersMatchHaversine(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomCity(rng, 60)
	hs := HaversineStore(pts)
	for trial := 0; trial < 200; trial++ {
		i, j := rng.Intn(60), rng.Intn(60)
		if hs.Dist(i, j) != Haversine(pts[i], pts[j]) {
			t.Fatalf("HaversineStore.Dist(%d,%d) differs from Haversine", i, j)
		}
	}
}

// TestNeighborStoreErrorBound is the quantization accuracy property:
// every banded distance is within one bucket of the exact Haversine,
// and out-of-band distances are exact (they are the same computation).
func TestNeighborStoreErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomCity(rng, 800)
	s := NewNeighborStore(pts, 16)
	bucket := s.BucketKm()
	if bucket <= 0 {
		t.Fatalf("BucketKm = %v", bucket)
	}
	banded, checked := 0, 0
	for trial := 0; trial < 20000; trial++ {
		i, j := rng.Intn(len(pts)), rng.Intn(len(pts))
		exact := Haversine(pts[i], pts[j])
		got := s.Dist(i, j)
		checked++
		if s.InBand(i, j) {
			banded++
			if diff := got - exact; diff > bucket || diff < -bucket {
				t.Fatalf("banded Dist(%d,%d) = %v, exact %v: error %v exceeds one bucket %v",
					i, j, got, exact, diff, bucket)
			}
		} else if got != exact {
			t.Fatalf("out-of-band Dist(%d,%d) = %v, want exact %v", i, j, got, exact)
		}
	}
	if banded == 0 {
		t.Fatal("no banded pair sampled; the store stored nothing")
	}
	t.Logf("checked %d pairs, %d banded", checked, banded)
}

// TestNeighborStoreSymmetry: the band is symmetrized at build time, so
// Dist(i,j) == Dist(j,i) whether the pair is banded or not.
func TestNeighborStoreSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randomCity(rng, 500)
	s := NewNeighborStore(pts, 8)
	for trial := 0; trial < 5000; trial++ {
		i, j := rng.Intn(len(pts)), rng.Intn(len(pts))
		if s.Dist(i, j) != s.Dist(j, i) {
			t.Fatalf("Dist(%d,%d) != Dist(%d,%d)", i, j, j, i)
		}
		if s.InBand(i, j) != s.InBand(j, i) {
			t.Fatalf("band membership asymmetric for (%d,%d)", i, j)
		}
	}
	for i := 0; i < len(pts); i++ {
		if d := s.Dist(i, i); d != 0 {
			t.Fatalf("Dist(%d,%d) = %v, want 0", i, i, d)
		}
	}
}

// TestNeighborStoreNearNeighborsBanded: the band must actually contain
// each point's closest companions — that is its whole purpose; a store
// that banded arbitrary pairs would fall back on every constrained leg.
func TestNeighborStoreNearNeighborsBanded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomCity(rng, 400)
	const k = 12
	s := NewNeighborStore(pts, k)
	misses := 0
	for i := range pts {
		// Exact nearest neighbor by brute force.
		best, bd := -1, 0.0
		for j := range pts {
			if j == i {
				continue
			}
			if d := Haversine(pts[i], pts[j]); best < 0 || d < bd {
				best, bd = j, d
			}
		}
		if !s.InBand(i, best) {
			misses++
		}
	}
	// The grid search is approximate; allow a small miss rate but not a
	// broken band.
	if misses > len(pts)/20 {
		t.Fatalf("%d/%d points miss their exact nearest neighbor in the band", misses, len(pts))
	}
}

// TestFallbackCounter: out-of-band lookups increment the shared
// counter; banded lookups do not.
func TestFallbackCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randomCity(rng, 300)
	s := NewNeighborStore(pts, 4)
	var in, out [2]int
	for trial := 0; trial < 2000; trial++ {
		i, j := rng.Intn(len(pts)), rng.Intn(len(pts))
		if i == j {
			continue
		}
		k := 0
		if !s.InBand(i, j) {
			k = 1
		}
		before := FallbackTotal()
		s.Dist(i, j)
		in[k] += int(FallbackTotal() - before)
		out[k]++
	}
	if in[0] != 0 {
		t.Fatalf("banded lookups bumped the fallback counter %d times", in[0])
	}
	if out[1] > 0 && in[1] != out[1] {
		t.Fatalf("out-of-band lookups counted %d of %d", in[1], out[1])
	}
}

// TestNeighborStoreMemory: the band must stay linear in n·K — the
// memory claim behind replacing the n² matrix.
func TestNeighborStoreMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 5000
	pts := randomCity(rng, n)
	s := NewNeighborStore(pts, DefaultNeighborK)
	matrix := 4 * n * n // what NewDistMatrix would cost
	if got := s.SizeBytes(); got >= matrix/4 {
		t.Fatalf("NeighborStore.SizeBytes = %d, want far below matrix %d", got, matrix)
	}
}

// TestNeighborStoreDegenerate covers the edge catalogs: empty, single
// point, and all points coincident.
func TestNeighborStoreDegenerate(t *testing.T) {
	if s := NewNeighborStore(nil, 4); s.Len() != 0 {
		t.Fatal("empty store")
	}
	one := NewNeighborStore([]Point{{Lat: 1, Lon: 2}}, 4)
	if d := one.Dist(0, 0); d != 0 {
		t.Fatalf("single-point Dist = %v", d)
	}
	same := make([]Point, 50)
	for i := range same {
		same[i] = Point{Lat: 10, Lon: 20}
	}
	s := NewNeighborStore(same, 4)
	for trial := 0; trial < 100; trial++ {
		i, j := trial%50, (trial*7)%50
		if d := s.Dist(i, j); d != 0 {
			t.Fatalf("coincident Dist(%d,%d) = %v", i, j, d)
		}
	}
}

// TestMaxDistBoundsEveryTier checks the leg ceiling every store reports:
// no Dist exceeds MaxDist on any tier, over random points on the whole
// globe, antipodal pairs, polar points and a catalog of one repeated
// point — and in-band quantized values that round above their exact
// distance, up to one that rounds above the Haversine ceiling itself.
func TestMaxDistBoundsEveryTier(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := map[string][]Point{}
	var global, antipodal, polar, same []Point
	for i := 0; i < 120; i++ {
		p := Point{Lat: -90 + 180*rng.Float64(), Lon: -180 + 360*rng.Float64()}
		global = append(global, p)
		antipodal = append(antipodal, p, Point{Lat: -p.Lat, Lon: p.Lon + 180})
		polar = append(polar, Point{Lat: 90 - 1e-3*rng.Float64(), Lon: p.Lon}, Point{Lat: -90, Lon: p.Lon})
		same = append(same, Point{Lat: 48.85, Lon: 2.35})
	}
	sets["global"], sets["antipodal"], sets["polar"], sets["coincident"] = global, antipodal, polar, same
	// Three points whose bounding-box diagonal falls just short of half a
	// great circle: the antipodal pair's code then rounds up, to a value
	// above the Haversine ceiling.
	var raised []Point
	for off := 0.0; off < 0.01; off += 1e-4 {
		pts := []Point{{Lat: -10, Lon: 0}, {Lat: 10, Lon: 180}, {Lat: -10 - off, Lon: 0.5}}
		if NewNeighborStore(pts, 0).MaxDist() > maxHaversineKm() {
			raised = pts
			break
		}
	}
	if raised == nil {
		t.Fatal("no three-point catalog quantized an antipodal pair above the Haversine ceiling")
	}
	sets["raised"] = raised

	roundedUp := 0
	for name, pts := range sets {
		stores := map[string]Store{
			"matrix":    NewDistMatrix(pts),
			"haversine": HaversineStore(pts),
			"neighbor":  NewNeighborStore(pts, 8),
		}
		for tier, s := range stores {
			ceil := s.MaxDist()
			if ceil < maxHaversineKm() {
				t.Errorf("%s/%s: MaxDist %v below the Haversine ceiling %v", name, tier, ceil, maxHaversineKm())
			}
			for i := range pts {
				for j := range pts {
					d := s.Dist(i, j)
					if d > ceil {
						t.Fatalf("%s/%s: Dist(%d,%d) = %v above MaxDist %v", name, tier, i, j, d, ceil)
					}
					if ns, ok := s.(*NeighborStore); ok && i != j && ns.InBand(i, j) && d > Haversine(pts[i], pts[j]) {
						roundedUp++
					}
				}
			}
		}
	}
	if roundedUp == 0 {
		t.Error("no in-band value rounded above its exact distance")
	}
}
