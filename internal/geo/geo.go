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

// Haversine returns the great-circle distance between a and b in kilometers.
// It never exceeds half a great circle, π·R ≈ 20 015 km.
func Haversine(a, b Point) float64 {
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

// maxHaversineKm returns the largest value Haversine can return: half a
// great circle, π·R ≈ 20 015 km. It evaluates the same expression as
// Haversine at its largest argument, asin(1), so no rounding of a real
// leg lands above it.
func maxHaversineKm() float64 { return 2 * EarthRadiusKm * math.Asin(1) }

// PathLength returns the total distance of visiting the points in order.
func PathLength(pts []Point) float64 {
	var total float64
	for i := 1; i < len(pts); i++ {
		total += Haversine(pts[i-1], pts[i])
	}
	return total
}
