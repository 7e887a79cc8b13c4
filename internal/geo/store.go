package geo

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
func (h HaversineStore) MaxDist() float64 { return MaxHaversineKm() }

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
//
// Each point keeps the k nearest of its candidates under the total order
// (distance, id), and point i's row holds i's own k nearest and every
// point that keeps i among its k nearest, ascending by id. A pair kept
// from both sides appears once: both sides compute the same code, since
// Haversine is symmetric bit for bit.
func NewNeighborStore(pts []Point, k int) *NeighborStore {
	n := len(pts)
	if k <= 0 {
		k = DefaultNeighborK
	}
	if k > n-1 {
		k = n - 1
	}
	s := &NeighborStore{pts: pts, offs: make([]int32, n+1), k: k, maxKm: MaxHaversineKm()}
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
	cosLat := make([]float64, n)
	for i, p := range pts {
		cosLat[i] = latCos(p)
	}

	// Per point: expand rings until a comfortable candidate surplus and
	// keep the k nearest by exact distance, ascending by id, in
	// near[nearOff[i]:nearOff[i+1]]. inOff counts, per point, the points
	// that keep it.
	near := make([]int32, 0, n*k)
	nearCode := make([]uint16, 0, n*k)
	nearOff := make([]int32, n+1)
	inOff := make([]int32, n+1)
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
						cands = append(cands, cand{j: j, d: haversine(pts[i], pts[j], cosLat[i], cosLat[j])})
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
		kept := nearest(cands, k)
		slices.SortFunc(kept, func(a, b cand) int { return cmp.Compare(a.j, b.j) })
		for _, c := range kept {
			near = append(near, c.j)
			nearCode = append(nearCode, s.quantize(c.d))
			inOff[c.j+1]++
		}
		nearOff[i+1] = int32(len(near))
	}

	// The points that keep each point, ascending by id: sources are
	// visited in id order.
	for i := 0; i < n; i++ {
		inOff[i+1] += inOff[i]
	}
	in := make([]int32, len(near))
	inCode := make([]uint16, len(near))
	fill := slices.Clone(inOff[:n])
	for i := 0; i < n; i++ {
		for m := nearOff[i]; m < nearOff[i+1]; m++ {
			j := near[m]
			in[fill[j]], inCode[fill[j]] = int32(i), nearCode[m]
			fill[j]++
		}
	}

	// Row i is the union of the two lists: counted first, so idx and code
	// are allocated at their final length, then filled.
	row := func(i int, idx []int32, code []uint16) int {
		lo, hi := nearOff[i], nearOff[i+1]
		a, b := inOff[i], inOff[i+1]
		return unionByID(near[lo:hi], nearCode[lo:hi], in[a:b], inCode[a:b], idx, code)
	}
	for i := 0; i < n; i++ {
		s.offs[i+1] = s.offs[i] + int32(row(i, nil, nil))
	}
	total := int(s.offs[n])
	s.idx = make([]int32, total)
	s.code = make([]uint16, total)
	for i := 0; i < n; i++ {
		row(i, s.idx[s.offs[i]:], s.code[s.offs[i]:])
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

// cand is a neighbor candidate of one point: its id and exact distance.
type cand struct {
	j int32
	d float64
}

// less orders candidates by distance, then id. A point's candidates have
// distinct ids, so the order is total and its k least are one set.
func (a cand) less(b cand) bool { return a.d < b.d || a.d == b.d && a.j < b.j }

// nearest reorders c so that its first k entries are its k least under
// cand.less, in no particular order, and returns them (all of c when it
// holds no more than k). It is a quickselect with a
// median-of-three pivot.
func nearest(c []cand, k int) []cand {
	if k >= len(c) {
		return c
	}
	// Invariant: c[:lo] < c[lo:hi+1] < c[hi+1:] and lo <= k <= hi+1.
	lo, hi := 0, len(c)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if c[mid].less(c[lo]) {
			c[mid], c[lo] = c[lo], c[mid]
		}
		if c[hi].less(c[lo]) {
			c[hi], c[lo] = c[lo], c[hi]
		}
		if c[mid].less(c[hi]) {
			c[mid], c[hi] = c[hi], c[mid]
		}
		pivot, p := c[hi], lo
		for i := lo; i < hi; i++ {
			if c[i].less(pivot) {
				c[i], c[p] = c[p], c[i]
				p++
			}
		}
		c[p], c[hi] = c[hi], c[p]
		switch {
		case p == k || p == k-1:
			return c[:k]
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return c[:k]
}

// unionByID merges two id-ascending neighbor lists into idx and code,
// keeping one entry for an id on both sides (their codes agree), and
// returns the union's length. With nil idx and code it only counts.
func unionByID(a []int32, ac []uint16, b []int32, bc []uint16, idx []int32, code []uint16) int {
	n := 0
	for len(a) > 0 || len(b) > 0 {
		var j int32
		var c uint16
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			j, c = a[0], ac[0]
			a, ac = a[1:], ac[1:]
		case len(a) == 0 || b[0] < a[0]:
			j, c = b[0], bc[0]
			b, bc = b[1:], bc[1:]
		default: // a pair both points keep
			j, c = a[0], ac[0]
			a, ac, b, bc = a[1:], ac[1:], b[1:], bc[1:]
		}
		if idx != nil {
			idx[n], code[n] = j, c
		}
		n++
	}
	return n
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
