package geo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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
		if NewNeighborStore(pts, 0).MaxDist() > MaxHaversineKm() {
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
			if ceil < MaxHaversineKm() {
				t.Errorf("%s/%s: MaxDist %v below the Haversine ceiling %v", name, tier, ceil, MaxHaversineKm())
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

// newNeighborStoreReference is NewNeighborStore as it was before it
// selected each point's k nearest instead of sorting every candidate,
// built rows per point instead of sorting and deduplicating a global
// edge list, and took each point's latitude cosine once. It measures with haversineReference, the Haversine
// formula as it was then. NewNeighborStore must build the same store,
// byte for byte.
func newNeighborStoreReference(pts []Point, k int) *NeighborStore {
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
	diag := haversineReference(minP, maxP)
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
	type refCand struct {
		j int32
		d float64
	}
	var cands []refCand
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
						cands = append(cands, refCand{j: j, d: haversineReference(pts[i], pts[int(j)])})
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
		sort.Sort(&neighborRowReference{idx: row, code: codes})
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

// neighborRowReference sorts one row's neighbors by id, carrying codes
// along.
type neighborRowReference struct {
	idx  []int32
	code []uint16
}

func (r *neighborRowReference) Len() int           { return len(r.idx) }
func (r *neighborRowReference) Less(i, j int) bool { return r.idx[i] < r.idx[j] }
func (r *neighborRowReference) Swap(i, j int) {
	r.idx[i], r.idx[j] = r.idx[j], r.idx[i]
	r.code[i], r.code[j] = r.code[j], r.code[i]
}

// clusteredCity scatters n points over eight clusters of a city-scale
// map, as the synthetic geo catalogs place their items.
func clusteredCity(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		c := float64(i % 8)
		pts[i] = Point{
			Lat: 40.75 + 0.25*math.Sin(c) + rng.NormFloat64()*0.02,
			Lon: -73.98 + 0.25*math.Cos(c*2.3) + rng.NormFloat64()*0.02,
		}
	}
	return pts
}

// sameStore reports the first field in which two neighbor stores differ,
// or "" when they are the same byte for byte.
func sameStore(got, want *NeighborStore) string {
	switch {
	case !slices.Equal(got.offs, want.offs):
		return "offs"
	case !slices.Equal(got.idx, want.idx):
		return "idx"
	case !slices.Equal(got.code, want.code):
		return "code"
	case math.Float64bits(got.bucketKm) != math.Float64bits(want.bucketKm):
		return "bucketKm"
	case math.Float64bits(got.maxKm) != math.Float64bits(want.maxKm):
		return "maxKm"
	case got.k != want.k || len(got.pts) != len(want.pts):
		return "k or points"
	}
	return ""
}

// TestNeighborStoreMatchesReference is the equivalence property of the
// store's construction: NewNeighborStore builds what
// newNeighborStoreReference builds, byte for byte, on random, clustered
// and degenerate catalogs up to 16 384 points and several band widths,
// and allocates idx and code at their final length. Degenerate catalogs
// are coincident points (every distance ties, so ids decide), catalogs
// of at most k+1 points (every point keeps every other) and catalogs
// whose points all fall in one grid cell.
func TestNeighborStoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type set struct {
		name string
		pts  []Point
	}
	var sets []set
	for _, n := range []int{2, 3, 40, 1000, 8192} {
		if testing.Short() && n > 1000 {
			continue
		}
		sets = append(sets, set{fmt.Sprintf("city-%d", n), randomCity(rng, n)}, set{fmt.Sprintf("clustered-%d", n), clusteredCity(rng, n)})
	}
	if !testing.Short() {
		sets = append(sets, set{"clustered-16384", clusteredCity(rng, 16384)})
	}
	global := make([]Point, 600)
	for i := range global {
		global[i] = Point{Lat: -90 + 180*rng.Float64(), Lon: -180 + 360*rng.Float64()}
	}
	sets = append(sets, set{"global-600", global})
	coincident := make([]Point, 300)
	for i := range coincident {
		coincident[i] = Point{Lat: 48.85, Lon: 2.35}
	}
	sets = append(sets, set{"coincident-300", coincident})
	// Two distinct positions: distances tie in two large groups.
	twoSpots := make([]Point, 257)
	for i := range twoSpots {
		twoSpots[i] = Point{Lat: 10 + float64(i%2)*1e-3, Lon: 20}
	}
	sets = append(sets, set{"two-spots-257", twoSpots})
	// One grid cell: every point but the far corner sits in cell (0, 0).
	oneCell := make([]Point, 400)
	for i := range oneCell {
		oneCell[i] = Point{Lat: 1e-4 * rng.Float64(), Lon: 1e-4 * rng.Float64()}
	}
	oneCell[len(oneCell)-1] = Point{Lat: 1, Lon: 1}
	sets = append(sets, set{"one-cell-400", oneCell})
	for n := 1; n <= 6; n++ {
		sets = append(sets, set{fmt.Sprintf("tiny-%d", n), randomCity(rng, n)})
	}
	for _, ps := range sets {
		for _, k := range []int{0, 1, 5, 32} {
			if len(ps.pts) > 1000 && k != 0 {
				continue // the large sets run at the default band only
			}
			got, want := NewNeighborStore(ps.pts, k), newNeighborStoreReference(ps.pts, k)
			if field := sameStore(got, want); field != "" {
				t.Fatalf("%s, k=%d: %s differs from the reference", ps.name, k, field)
			}
			if cap(got.idx) != len(got.idx) || cap(got.code) != len(got.code) {
				t.Fatalf("%s, k=%d: idx len %d cap %d, code len %d cap %d",
					ps.name, k, len(got.idx), cap(got.idx), len(got.code), cap(got.code))
			}
		}
	}
}

// TestNearestSelectsLeast checks the quickselect against a full sort:
// the first k entries it leaves are the k least under cand.less, on
// candidate lists with distinct, tied and all-equal distances.
func TestNearestSelectsLeast(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 2000; trial++ {
		m := 1 + rng.Intn(200)
		levels := []int{1, 2, 5, m}[rng.Intn(4)] // distinct distances
		cands := make([]cand, m)
		for i, j := range rng.Perm(m) {
			cands[i] = cand{j: int32(j), d: float64(rng.Intn(levels))}
		}
		sorted := slices.Clone(cands)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].less(sorted[b]) })
		k := rng.Intn(m + 2)
		kept := slices.Clone(nearest(cands, k))
		sort.Slice(kept, func(a, b int) bool { return kept[a].less(kept[b]) })
		if want := sorted[:min(k, m)]; !slices.Equal(kept, want) {
			t.Fatalf("m=%d k=%d: kept %v, want %v", m, k, kept, want)
		}
	}
}

// BenchmarkNeighborStore builds the neighbor store at the default band
// width over clustered points, as an upload of a synthetic geo catalog
// does: 8192 points is catalog-8k's size, 100 000 the largest scale
// point.
func BenchmarkNeighborStore(b *testing.B) {
	for _, n := range []int{8192, 100000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			pts := clusteredCity(rand.New(rand.NewSource(int64(n))), n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				NewNeighborStore(pts, DefaultNeighborK)
			}
		})
	}
}
