package geo

import "fmt"

// DefaultDistMatrixMaxItems is the largest catalog NewDistStore serves
// from the precomputed matrix: the full n×n float32 matrix costs 4n² bytes
// (1024 items ≈ 4 MB), so beyond this many points it falls back to
// on-the-fly Haversine instead of trading quadratic memory for the lookup.
const DefaultDistMatrixMaxItems = 1024

// DistMatrix is a precomputed pairwise great-circle distance table. Distances
// are stored as float32 — the ~7 significant digits leave sub-millimeter error
// at city scale, half the memory of float64, and better cache density in the
// per-candidate feasibility loop. The matrix is symmetric with a zero
// diagonal and, once built, immutable and safe for concurrent use.
type DistMatrix struct {
	n     int
	d     []float32 // row-major n×n
	maxKm float64   // MaxDist
}

// NewDistMatrix precomputes the Haversine distance between every pair of
// points. Build cost is n(n-1)/2 trig evaluations; after that every lookup is
// one float32 load.
func NewDistMatrix(pts []Point) *DistMatrix {
	n := len(pts)
	m := &DistMatrix{n: n, d: make([]float32, n*n), maxKm: MaxHaversineKm()}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := float32(Haversine(pts[i], pts[j]))
			m.d[i*n+j] = d
			m.d[j*n+i] = d
			// Rounding to float32 can land just above the Haversine
			// ceiling.
			if float64(d) > m.maxKm {
				m.maxKm = float64(d)
			}
		}
	}
	return m
}

// Len returns the number of points the matrix covers.
func (m *DistMatrix) Len() int { return m.n }

// MaxDist returns the largest value Dist can return: the Haversine
// ceiling, or the largest float32 entry when rounding put one above it.
func (m *DistMatrix) MaxDist() float64 { return m.maxKm }

// Dist returns the precomputed distance between points i and j in kilometers.
func (m *DistMatrix) Dist(i, j int) float64 {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("geo: dist index (%d,%d) out of range [0,%d)", i, j, m.n))
	}
	return float64(m.d[i*m.n+j])
}
