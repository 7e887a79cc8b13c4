package geo

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Store is the pairwise-distance surface the planner layers depend on —
// the concrete representation (exact matrix, on-the-fly Haversine,
// quantized neighbor bands) stays a detail of this package, selected by
// catalog size. All implementations are immutable once built and safe
// for concurrent use.
type Store interface {
	// Len returns the number of points covered.
	Len() int
	// Dist returns the distance between points i and j in kilometers.
	Dist(i, j int) float64
	// MaxDist returns an upper bound, fixed when the store is built, on
	// every value Dist returns. A distance budget with more than MaxDist
	// left cannot be exceeded by any one leg.
	MaxDist() float64
	// SizeBytes estimates the store's resident backing bytes.
	SizeBytes() int
}

// DefaultExactHaversineMaxItems is the catalog size up to which
// NewDistStore keeps distances exact (precomputed matrix below the
// matrix cap, per-call Haversine above it). Beyond this many points the
// quantized neighbor store takes over; the threshold matches the dense
// Q threshold so the whole data plane switches representation at one
// size, keeping plans at or below it bit-identical to the dense path.
const DefaultExactHaversineMaxItems = 4096

// DefaultNeighborK is the per-point neighbor band width of the
// quantized store — enough to cover the legs a distance-constrained
// plan actually walks; pairs outside the band fall back to exact
// Haversine and are counted.
const DefaultNeighborK = 32

// fallbackTotal counts Dist calls that missed the compressed neighbor
// band and recomputed an exact Haversine — the observability hook for
// the accuracy/memory trade (served as dist_fallback_total).
var fallbackTotal atomic.Uint64

// FallbackTotal returns the process-wide count of out-of-band distance
// fallbacks.
func FallbackTotal() uint64 { return fallbackTotal.Load() }

// NewDistStore selects the distance representation for a catalog:
// the exact precomputed matrix up to DefaultDistMatrixMaxItems points,
// exact per-call Haversine up to DefaultExactHaversineMaxItems, and the
// quantized top-K neighbor store beyond — memory follows n·K instead of
// n², with exact fallback (and a counter) for pairs outside the band.
func NewDistStore(pts []Point) Store {
	if len(pts) <= DefaultDistMatrixMaxItems {
		return NewDistMatrix(pts)
	}
	if len(pts) <= DefaultExactHaversineMaxItems {
		return HaversineStore(pts)
	}
	return NewNeighborStore(pts, DefaultNeighborK)
}

// SizeBytes reports the matrix's float32 backing array.
func (m *DistMatrix) SizeBytes() int { return 4 * len(m.d) }

// HaversineStore computes every distance exactly on demand — no
// precomputation, 16 bytes per point. It is the mid-range tier of
// NewDistStore, preserving the historical above-matrix-cap behavior
// (and its bit-exact results) without the quadratic table.
type HaversineStore []Point

// Len returns the number of points covered.
func (h HaversineStore) Len() int { return len(h) }

// Dist returns the exact Haversine distance between points i and j.
func (h HaversineStore) Dist(i, j int) float64 {
	if i < 0 || i >= len(h) || j < 0 || j >= len(h) {
		panic(fmt.Sprintf("geo: dist index (%d,%d) out of range [0,%d)", i, j, len(h)))
	}
	return Haversine(h[i], h[j])
}

// MaxDist returns the Haversine ceiling.
func (h HaversineStore) MaxDist() float64 { return maxHaversineKm() }

// SizeBytes reports the point slice backing the store.
func (h HaversineStore) SizeBytes() int { return 16 * len(h) }

// NeighborStore holds each point's K nearest neighbors with distances
// quantized to uint16 bucket codes — 6 bytes per directed edge instead
// of the full matrix's 4 bytes per pair (≈ n·2K·6 bytes versus 4n²; at
// 100k points and K=32 that is ~38 MB versus 40 GB). Pairs outside the
// band recompute the exact Haversine
// and bump the fallback counter. The band is symmetric: Dist(i,j) and
// Dist(j,i) always agree, quantized or exact.
type NeighborStore struct {
	pts      []Point
	offs     []int32 // n+1 row offsets into idx/code
	idx      []int32 // neighbor ids, ascending per row
	code     []uint16
	bucketKm float64
	k        int
	maxKm    float64 // MaxDist
}

// NewNeighborStore builds the quantized K-nearest-neighbor store
// (k <= 0 means DefaultNeighborK). Neighbor search runs over a spatial
// grid — expanding cell rings per point — so the build is near O(n·K)
// instead of the O(n²) all-pairs sweep.
func NewNeighborStore(pts []Point, k int) *NeighborStore {
	n := len(pts)
	if k <= 0 {
		k = DefaultNeighborK
	}
	if k > n-1 {
		k = n - 1
	}
	s := &NeighborStore{pts: pts, offs: make([]int32, n+1), k: k, maxKm: maxHaversineKm()}
	if n == 0 || k <= 0 {
		s.bucketKm = 1
		return s
	}

	// Quantization step: the bounding-box diagonal spread over the uint16
	// code space (with a little headroom so near-diagonal pairs still
	// round inside range). Every stored distance is then within half a
	// bucket of exact.
	minP, maxP := pts[0], pts[0]
	for _, p := range pts[1:] {
		minP.Lat = math.Min(minP.Lat, p.Lat)
		minP.Lon = math.Min(minP.Lon, p.Lon)
		maxP.Lat = math.Max(maxP.Lat, p.Lat)
		maxP.Lon = math.Max(maxP.Lon, p.Lon)
	}
	diag := Haversine(minP, maxP)
	if diag == 0 {
		diag = 1e-9 // degenerate catalog: all points coincide
	}
	s.bucketKm = diag / 65000

	// Spatial grid at ~1 point per cell on average.
	g := int(math.Sqrt(float64(n)))
	if g < 1 {
		g = 1
	}
	cellOf := func(p Point) (int, int) {
		cx, cy := 0, 0
		if maxP.Lon > minP.Lon {
			cx = int(float64(g) * (p.Lon - minP.Lon) / (maxP.Lon - minP.Lon))
		}
		if maxP.Lat > minP.Lat {
			cy = int(float64(g) * (p.Lat - minP.Lat) / (maxP.Lat - minP.Lat))
		}
		if cx >= g {
			cx = g - 1
		}
		if cy >= g {
			cy = g - 1
		}
		return cx, cy
	}
	cells := make([][]int32, g*g)
	for i, p := range pts {
		cx, cy := cellOf(p)
		cells[cy*g+cx] = append(cells[cy*g+cx], int32(i))
	}

	// Per point: expand rings until a comfortable candidate surplus,
	// keep the k nearest by exact distance, and record the canonical
	// (low, high) pair so the final band is symmetric.
	type edge struct {
		a, b int32
		code uint16
	}
	edges := make([]edge, 0, n*k)
	type cand struct {
		j int32
		d float64
	}
	var cands []cand
	for i := 0; i < n; i++ {
		cx, cy := cellOf(pts[i])
		cands = cands[:0]
		for r := 0; ; r++ {
			x0, x1 := cx-r, cx+r
			y0, y1 := cy-r, cy+r
			for y := y0; y <= y1; y++ {
				if y < 0 || y >= g {
					continue
				}
				for x := x0; x <= x1; x++ {
					if x < 0 || x >= g {
						continue
					}
					if r > 0 && x > x0 && x < x1 && y > y0 && y < y1 {
						continue // interior cells were visited at smaller r
					}
					for _, j := range cells[y*g+x] {
						if int(j) == i {
							continue
						}
						cands = append(cands, cand{j: j, d: Haversine(pts[i], pts[int(j)])})
					}
				}
			}
			covered := x0 <= 0 && y0 <= 0 && x1 >= g-1 && y1 >= g-1
			// One extra ring past k candidates: grid cells are not
			// isometric, so the true k nearest may sit a ring further out
			// than the first k found. A miss only costs an exact fallback
			// at query time, never a wrong distance.
			if covered || len(cands) >= 3*k {
				break
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].d != cands[b].d {
				return cands[a].d < cands[b].d
			}
			return cands[a].j < cands[b].j
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		for _, c := range cands {
			a, b := int32(i), c.j
			if a > b {
				a, b = b, a
			}
			edges = append(edges, edge{a: a, b: b, code: s.quantize(c.d)})
		}
	}

	// Dedup canonical pairs, then materialize both directions with
	// ascending neighbor ids per row.
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].a != edges[b].a {
			return edges[a].a < edges[b].a
		}
		return edges[a].b < edges[b].b
	})
	uniq := edges[:0]
	for i, e := range edges {
		if i > 0 && e.a == uniq[len(uniq)-1].a && e.b == uniq[len(uniq)-1].b {
			continue
		}
		uniq = append(uniq, e)
	}
	deg := make([]int32, n)
	for _, e := range uniq {
		deg[e.a]++
		deg[e.b]++
	}
	for i := 0; i < n; i++ {
		s.offs[i+1] = s.offs[i] + deg[i]
	}
	total := int(s.offs[n])
	s.idx = make([]int32, total)
	s.code = make([]uint16, total)
	fill := make([]int32, n)
	for _, e := range uniq {
		pa := s.offs[e.a] + fill[e.a]
		s.idx[pa], s.code[pa] = e.b, e.code
		fill[e.a]++
		pb := s.offs[e.b] + fill[e.b]
		s.idx[pb], s.code[pb] = e.a, e.code
		fill[e.b]++
	}
	for i := 0; i < n; i++ {
		lo, hi := s.offs[i], s.offs[i+1]
		row, codes := s.idx[lo:hi], s.code[lo:hi]
		sort.Sort(&neighborRow{idx: row, code: codes})
	}
	// A code rounds to the nearest bucket, so an in-band value can sit
	// up to half a bucket above its exact distance, and so above the
	// Haversine ceiling when the pair is antipodal.
	var maxCode uint16
	for _, c := range s.code {
		if c > maxCode {
			maxCode = c
		}
	}
	if d := float64(maxCode) * s.bucketKm; d > s.maxKm {
		s.maxKm = d
	}
	return s
}

// neighborRow sorts one row's neighbors by id, carrying codes along.
type neighborRow struct {
	idx  []int32
	code []uint16
}

func (r *neighborRow) Len() int           { return len(r.idx) }
func (r *neighborRow) Less(i, j int) bool { return r.idx[i] < r.idx[j] }
func (r *neighborRow) Swap(i, j int) {
	r.idx[i], r.idx[j] = r.idx[j], r.idx[i]
	r.code[i], r.code[j] = r.code[j], r.code[i]
}

func (s *NeighborStore) quantize(d float64) uint16 {
	c := math.Round(d / s.bucketKm)
	if c > 65535 {
		c = 65535
	}
	return uint16(c)
}

// Len returns the number of points covered.
func (s *NeighborStore) Len() int { return len(s.pts) }

// Dist returns the banded quantized distance when j is in i's neighbor
// band, otherwise the exact Haversine (counted as a fallback). The
// quantized value is within half a bucket of exact — the ≤ 1 bucket
// error bound the accuracy test pins.
func (s *NeighborStore) Dist(i, j int) float64 {
	n := len(s.pts)
	if i < 0 || i >= n || j < 0 || j >= n {
		panic(fmt.Sprintf("geo: dist index (%d,%d) out of range [0,%d)", i, j, n))
	}
	if i == j {
		return 0
	}
	lo, hi := int(s.offs[i]), int(s.offs[i+1])
	row := s.idx[lo:hi]
	t := int32(j)
	p := sort.Search(len(row), func(k int) bool { return row[k] >= t })
	if p < len(row) && row[p] == t {
		return float64(s.code[lo+p]) * s.bucketKm
	}
	fallbackTotal.Add(1)
	return Haversine(s.pts[i], s.pts[j])
}

// MaxDist returns the Haversine ceiling, raised to the largest in-band
// value when quantization rounded one above it.
func (s *NeighborStore) MaxDist() float64 { return s.maxKm }

// BucketKm returns the quantization step in kilometers.
func (s *NeighborStore) BucketKm() float64 { return s.bucketKm }

// InBand reports whether the pair (i, j) is served from the quantized
// band (true) or recomputed exactly on each call (false).
func (s *NeighborStore) InBand(i, j int) bool {
	if i == j {
		return true
	}
	lo, hi := int(s.offs[i]), int(s.offs[i+1])
	row := s.idx[lo:hi]
	t := int32(j)
	p := sort.Search(len(row), func(k int) bool { return row[k] >= t })
	return p < len(row) && row[p] == t
}

// SizeBytes reports the store's backing arrays (points, offsets,
// neighbor ids, codes).
func (s *NeighborStore) SizeBytes() int {
	return 16*len(s.pts) + 4*len(s.offs) + 4*len(s.idx) + 2*len(s.code)
}
