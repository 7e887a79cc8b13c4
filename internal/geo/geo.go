// Package geo provides the small amount of spherical geometry the trip
// planner needs: great-circle distances between POIs for the distance
// threshold d of the trip hard constraints.
package geo

import "math"

// EarthRadiusKm is the mean Earth radius used by Haversine.
const EarthRadiusKm = 6371.0

// Point is a latitude/longitude pair in degrees.
type Point struct {
	Lat, Lon float64
}

// degToRad converts degrees to radians.
const degToRad = math.Pi / 180

// Haversine returns the great-circle distance between a and b in kilometers.
// It never exceeds half a great circle, π·R ≈ 20 015 km.
func Haversine(a, b Point) float64 { return haversine(a, b, latCos(a), latCos(b)) }

// latCos returns the cosine of p's latitude, the per-point factor of the
// Haversine formula.
func latCos(p Point) float64 { return math.Cos(p.Lat * degToRad) }

// haversine is Haversine given each point's latitude cosine (latCos), so
// a caller measuring many pairs computes each point's once. It is the
// one Haversine formula: the result is the same float64 as Haversine's,
// and swapping a and b (with their cosines) does not change a bit.
func haversine(a, b Point, cosA, cosB float64) float64 {
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + cosA*cosB*sinLon*sinLon
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// MaxHaversineKm returns the largest value Haversine can return: half a
// great circle, π·R ≈ 20 015 km. It evaluates the same expression as
// Haversine at its largest argument, asin(1), so no rounding of a real
// leg lands above it.
func MaxHaversineKm() float64 { return 2 * EarthRadiusKm * math.Asin(1) }

// PathLength returns the total distance of visiting the points in order.
func PathLength(pts []Point) float64 {
	var total float64
	for i := 1; i < len(pts); i++ {
		total += Haversine(pts[i-1], pts[i])
	}
	return total
}
