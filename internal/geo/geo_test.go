package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestHaversineZero(t *testing.T) {
	p := Point{48.8584, 2.2945} // Eiffel Tower
	if d := Haversine(p, p); d != 0 {
		t.Fatalf("distance to self = %v", d)
	}
}

func TestHaversineKnownDistance(t *testing.T) {
	// Eiffel Tower to Louvre is about 3.2 km.
	eiffel := Point{48.8584, 2.2945}
	louvre := Point{48.8606, 2.3376}
	d := Haversine(eiffel, louvre)
	if d < 2.9 || d > 3.5 {
		t.Fatalf("Eiffel→Louvre = %.2f km, want ≈3.2", d)
	}
}

// haversineReference is the Haversine formula as it was before the
// latitude cosines became an input (haversine): Haversine must return
// the same float64.
func haversineReference(a, b Point) float64 {
	const degToRad = math.Pi / 180
	lat1 := a.Lat * degToRad
	lat2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// pointPairs draws pairs of points over the globe, within one city,
// near the poles and (nearly) antipodal.
func pointPairs(rng *rand.Rand, n int) [][2]Point {
	pairs := make([][2]Point, 0, 4*n)
	for i := 0; i < n; i++ {
		g := Point{Lat: -90 + 180*rng.Float64(), Lon: -180 + 360*rng.Float64()}
		c := Point{Lat: 40.7 + 0.1*rng.Float64(), Lon: -74 + 0.1*rng.Float64()}
		pole := Point{Lat: 90 - 1e-3*rng.Float64(), Lon: -180 + 360*rng.Float64()}
		pairs = append(pairs,
			[2]Point{g, {Lat: -90 + 180*rng.Float64(), Lon: -180 + 360*rng.Float64()}},
			[2]Point{c, {Lat: 40.7 + 0.1*rng.Float64(), Lon: -74 + 0.1*rng.Float64()}},
			[2]Point{pole, {Lat: -pole.Lat, Lon: pole.Lon + 180}},
			[2]Point{g, {Lat: -g.Lat, Lon: g.Lon + 180 - 1e-9*rng.Float64()}})
	}
	return pairs
}

// TestHaversineSymmetric requires Haversine(a, b) and Haversine(b, a)
// to be the same float64, bit for bit: the neighbor store keeps a pair
// both points hold once, trusting that both sides computed one code.
func TestHaversineSymmetric(t *testing.T) {
	for _, p := range pointPairs(rand.New(rand.NewSource(8)), 5000) {
		if ab, ba := Haversine(p[0], p[1]), Haversine(p[1], p[0]); math.Float64bits(ab) != math.Float64bits(ba) {
			t.Fatalf("Haversine(%v, %v) = %v, reversed %v", p[0], p[1], ab, ba)
		}
	}
}

// TestHaversineMatchesReference requires Haversine, and haversine given
// the latitude cosines, to return the reference formula's float64.
func TestHaversineMatchesReference(t *testing.T) {
	for _, p := range pointPairs(rand.New(rand.NewSource(9)), 5000) {
		want := math.Float64bits(haversineReference(p[0], p[1]))
		if got := math.Float64bits(Haversine(p[0], p[1])); got != want {
			t.Fatalf("Haversine(%v, %v) bits %x, reference %x", p[0], p[1], got, want)
		}
		if got := math.Float64bits(haversine(p[0], p[1], latCos(p[0]), latCos(p[1]))); got != want {
			t.Fatalf("haversine(%v, %v) bits %x, reference %x", p[0], p[1], got, want)
		}
	}
}

func TestPathLength(t *testing.T) {
	a := Point{48.8584, 2.2945}
	b := Point{48.8606, 2.3376}
	c := Point{48.8530, 2.3499}
	got := PathLength([]Point{a, b, c})
	want := Haversine(a, b) + Haversine(b, c)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("PathLength = %v, want %v", got, want)
	}
	if PathLength(nil) != 0 || PathLength([]Point{a}) != 0 {
		t.Fatal("degenerate paths should be 0")
	}
}

func TestTriangleInequality(t *testing.T) {
	a := Point{48.85, 2.29}
	b := Point{48.87, 2.35}
	c := Point{48.84, 2.32}
	if Haversine(a, b) > Haversine(a, c)+Haversine(c, b)+1e-9 {
		t.Fatal("triangle inequality violated")
	}
}
