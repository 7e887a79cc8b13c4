package trip

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/prereq"
)

func TestCityShapes(t *testing.T) {
	// §IV-A1: NYC has 90 POIs / 21 themes / 2908 itineraries; Paris has
	// 114 POIs / 16 themes / 5494 itineraries.
	cases := []struct {
		city                      *CityData
		pois, themes, itineraries int
	}{
		{NYC(), 90, 21, 2908},
		{Paris(), 114, 16, 5494},
	}
	for _, tc := range cases {
		in := tc.city.Instance
		if got := in.Catalog.Len(); got != tc.pois {
			t.Errorf("%s: %d POIs, want %d", in.Name, got, tc.pois)
		}
		if got := in.Catalog.Vocabulary().Len(); got != tc.themes {
			t.Errorf("%s: %d themes, want %d", in.Name, got, tc.themes)
		}
		if got := len(tc.city.Itineraries); got != tc.itineraries {
			t.Errorf("%s: %d itineraries, want %d", in.Name, got, tc.itineraries)
		}
		if err := in.Validate(); err != nil {
			t.Errorf("%s: %v", in.Name, err)
		}
	}
}

func TestPaperQuotedPOIsExist(t *testing.T) {
	nyc := NYC().Instance.Catalog
	for _, id := range []string{
		"battery park", "brooklyn bridge", "colonnade row", "flatiron building",
		"hudson river park", "rockefeller center", "museum of television and radio",
		"new york university",
	} {
		if _, ok := nyc.Index(id); !ok {
			t.Errorf("NYC missing paper POI %q", id)
		}
	}
	paris := Paris().Instance.Catalog
	for _, id := range []string{
		"pont neuf", "promenade plantée", "sainte chapelle", "tour montparnasse",
		"église st-eustache", "viaduc des arts", "église st-germain des prés",
		"musée du luxembourg", "musée des égouts de paris", "église st-sulpice",
		"eiffel tower", "louvre museum", "rue des martyrs", "le cinq",
		"the river seine", "palais garnier", "cathédrale notre-dame de paris",
	} {
		if _, ok := paris.Index(id); !ok {
			t.Errorf("Paris missing paper POI %q", id)
		}
	}
}

func TestHardConstraints(t *testing.T) {
	in := Paris().Instance
	h := in.Hard
	// §IV-A1: the city datasets' hard constraint is the visitation time
	// (plus d and the theme gap); the 2/3 split belongs to toy Example 2.
	if h.Credits != 6 || h.Primary != 0 || h.Secondary != 0 || h.Gap != 1 {
		t.Fatalf("P_hard = %s, want ⟨6, 0, 0, 1⟩", h)
	}
	if !h.ThemeGap {
		t.Fatal("theme gap rule missing")
	}
	if h.MaxDistanceKm != 5 {
		t.Fatalf("d = %v, want 5", h.MaxDistanceKm)
	}
	if in.GoldScore != 5 {
		t.Fatalf("gold = %v, want 5", in.GoldScore)
	}
	d := in.Defaults
	if d.Episodes != 500 || d.Alpha != 0.95 || d.Gamma != 0.75 {
		t.Fatalf("defaults = %+v", d)
	}
}

func TestPopularityScale(t *testing.T) {
	for _, city := range []*CityData{NYC(), Paris()} {
		in := city.Instance
		var max float64
		for i := 0; i < in.Catalog.Len(); i++ {
			p := in.Catalog.At(i).Popularity
			if p < 1 || p > 5 {
				t.Fatalf("%s: popularity %v out of [1,5] for %s",
					in.Name, p, in.Catalog.At(i).ID)
			}
			if p > max {
				max = p
			}
		}
		// The most-visited POI scores exactly 5 (the gold bound).
		if max != 5 {
			t.Fatalf("%s: max popularity = %v, want 5", in.Name, max)
		}
	}
}

func TestPrimariesAreTopAttractions(t *testing.T) {
	// Primary POIs should end up among the most popular — the simulator
	// ranks them first.
	in := NYC().Instance
	for _, i := range in.Catalog.Primaries() {
		if p := in.Catalog.At(i).Popularity; p < 3 {
			t.Errorf("primary %s popularity %v < 3", in.Catalog.At(i).ID, p)
		}
	}
}

func TestRestaurantsHaveMuseumAntecedents(t *testing.T) {
	paris := Paris().Instance.Catalog
	m, ok := paris.ByID("le cinq")
	if !ok {
		t.Fatal("le cinq missing")
	}
	refs := prereq.ReferencedItems(m.Prereq)
	if len(refs) == 0 {
		t.Fatal("restaurant has no antecedent")
	}
	for _, r := range refs {
		ref, ok := paris.ByID(r)
		if !ok {
			t.Fatalf("antecedent %q not in catalog", r)
		}
		if ref.Category != 0 { // museum theme
			t.Fatalf("antecedent %q is not a museum", r)
		}
	}
}

func TestGroupItinerariesRoundTrip(t *testing.T) {
	city := NYC()
	grouped := GroupItineraries(city.Photos)
	if len(grouped) != len(city.Itineraries) {
		t.Fatalf("grouped %d itineraries, simulated %d", len(grouped), len(city.Itineraries))
	}
	// Total POI visits must match the simulator's bookkeeping.
	var simVisits, groupVisits int
	for _, it := range city.Itineraries {
		simVisits += len(it)
	}
	for _, it := range grouped {
		groupVisits += len(it)
	}
	if simVisits != groupVisits {
		t.Fatalf("visits: simulated %d, regrouped %d", simVisits, groupVisits)
	}
}

func TestGroupItinerariesOrdering(t *testing.T) {
	photos := []Photo{
		{User: 1, Day: 0, POI: 2, Hour: 14},
		{User: 1, Day: 0, POI: 0, Hour: 9},
		{User: 1, Day: 0, POI: 0, Hour: 9.1}, // second photo, same POI
		{User: 1, Day: 0, POI: 1, Hour: 11},
		{User: 2, Day: 0, POI: 5, Hour: 10},
	}
	its := GroupItineraries(photos)
	if len(its) != 2 {
		t.Fatalf("itineraries = %v", its)
	}
	want := Itinerary{0, 1, 2}
	if len(its[0]) != 3 {
		t.Fatalf("first itinerary = %v", its[0])
	}
	for i := range want {
		if its[0][i] != want[i] {
			t.Fatalf("first itinerary = %v, want %v", its[0], want)
		}
	}
}

func TestItinerariesAreThemeDiverseMostly(t *testing.T) {
	// The simulator discourages consecutive same-theme visits; over the
	// whole log same-theme adjacency should be well under a third.
	city := Paris()
	defs := parisPOIs
	var pairs, same int
	for _, it := range city.Itineraries {
		for i := 1; i < len(it); i++ {
			pairs++
			if defs[it[i]].cat == defs[it[i-1]].cat {
				same++
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no adjacent pairs simulated")
	}
	if ratio := float64(same) / float64(pairs); ratio > 0.33 {
		t.Fatalf("same-theme adjacency ratio = %.2f", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	a, b := NYC(), NYC()
	if len(a.Photos) != len(b.Photos) {
		t.Fatal("photo logs differ across builds")
	}
	for i := 0; i < a.Instance.Catalog.Len(); i++ {
		if a.Instance.Catalog.At(i).Popularity != b.Instance.Catalog.At(i).Popularity {
			t.Fatal("popularity differs across builds")
		}
	}
}

func TestUnknownCity(t *testing.T) {
	if _, err := City("Atlantis"); err == nil {
		t.Fatal("unknown city accepted")
	}
}

func TestVisitTimesArePositive(t *testing.T) {
	for _, city := range []*CityData{NYC(), Paris()} {
		c := city.Instance.Catalog
		for i := 0; i < c.Len(); i++ {
			m := c.At(i)
			if m.Credits <= 0 || m.Credits > 3 {
				t.Errorf("%s: %s visit time %v", city.Instance.Name, m.ID, m.Credits)
			}
			if m.Type == item.Primary && m.Popularity < 1 {
				t.Errorf("%s: primary %s popularity %v", city.Instance.Name, m.ID, m.Popularity)
			}
		}
	}
}

// cityDigest hashes everything the photo-log simulation produces for a
// city: every photo (user, POI, day, hour bits), every itinerary, the
// visit counts and the popularity each POI derives from them.
func cityDigest(c *CityData) string {
	h := sha256.New()
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	put(uint64(len(c.Photos)))
	for _, p := range c.Photos {
		put(uint64(p.User))
		put(uint64(p.POI))
		put(uint64(p.Day))
		put(math.Float64bits(p.Hour))
	}
	put(uint64(len(c.Itineraries)))
	for _, it := range c.Itineraries {
		put(uint64(len(it)))
		for _, poi := range it {
			put(uint64(poi))
		}
	}
	put(uint64(len(c.VisitCounts)))
	for _, v := range c.VisitCounts {
		put(uint64(v))
	}
	cat := c.Instance.Catalog
	put(uint64(cat.Len()))
	for i := 0; i < cat.Len(); i++ {
		put(math.Float64bits(cat.At(i).Popularity))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// TestCityGolden pins the simulated photo logs, itineraries, visit
// counts and popularity of both cities to digests recorded before the
// simulation's distance-decay table, reused weights buffer and visited
// flags replaced its per-draw Haversine calls, per-draw weights slice
// and per-itinerary map. Any change to a draw changes the digest.
func TestCityGolden(t *testing.T) {
	for _, tc := range []struct {
		city *CityData
		want string
	}{
		{NYC(), "1297b49180240137469df66ca5f7f975a763d6cd5760ff71b8fb4380e34a059e"},
		{Paris(), "afad1401c51bfcb667bcdc4b9e5abba6efe6249bbffe078e166535618278f6fe"},
	} {
		if got := cityDigest(tc.city); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.city.Instance.Name, got, tc.want)
		}
	}
}

// simulateReference is the photo-log simulation as it was before simulate
// tabulated the distance decay: it recomputes the Haversine distance of
// every pair on every draw, allocates a weights slice per draw and a
// visited map per itinerary. simulate must reproduce it draw for draw.
func simulateReference(defs []poiDef, nItineraries int, seed int64) ([]Photo, []Itinerary, []int) {
	rng := rand.New(rand.NewSource(seed))
	n := len(defs)

	// Base attractiveness: Zipf-like over a popularity ranking where
	// primary POIs occupy the top ranks.
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(i, j int) bool {
		pi, pj := defs[rank[i]].primary, defs[rank[j]].primary
		if pi != pj {
			return pi
		}
		return rank[i] < rank[j]
	})
	base := make([]float64, n)
	for pos, poi := range rank {
		base[poi] = 1 / math.Pow(float64(pos+1), 0.8)
		if defs[poi].primary {
			// Must-visit POIs draw disproportionate crowds.
			base[poi] *= 4
		}
	}

	var photos []Photo
	counts := make([]int, n)
	itineraries := make([]Itinerary, 0, nItineraries)
	const itinerariesPerUser = 2

	for itIdx := 0; itIdx < nItineraries; itIdx++ {
		user := itIdx / itinerariesPerUser
		day := itIdx % itinerariesPerUser
		length := 2 + rng.Intn(4) // 2–5 POIs per day
		var it Itinerary
		visited := make(map[int]bool, length)
		prev := -1
		hour := 9 + rng.Float64()*2
		for len(it) < length {
			poi := samplePOIReference(rng, defs, base, visited, prev)
			if poi < 0 {
				break
			}
			visited[poi] = true
			it = append(it, poi)
			counts[poi]++
			// 1–3 photos per visit.
			for k := 0; k < 1+rng.Intn(3); k++ {
				photos = append(photos, Photo{User: user, POI: poi, Day: day, Hour: hour})
				hour += 0.05 + rng.Float64()*0.1
			}
			hour += 0.5 + rng.Float64()
			prev = poi
		}
		itineraries = append(itineraries, it)
	}
	return photos, itineraries, counts
}

// samplePOIReference is simulateReference's draw.
func samplePOIReference(rng *rand.Rand, defs []poiDef, base []float64, visited map[int]bool, prev int) int {
	weights := make([]float64, len(defs))
	var total float64
	for i := range defs {
		if visited[i] {
			continue
		}
		w := base[i]
		if prev >= 0 {
			if defs[i].cat == defs[prev].cat {
				w *= 0.2 // theme diversity
			}
			d := geo.Haversine(
				geo.Point{Lat: defs[prev].lat, Lon: defs[prev].lon},
				geo.Point{Lat: defs[i].lat, Lon: defs[i].lon})
			w *= 1 / (1 + d/2) // distance decay, ~2 km half-weight
		}
		weights[i] = w
		total += w
	}
	if total == 0 {
		return -1
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(defs) - 1
}

// TestSimulateMatchesReference compares simulate with the reference
// simulation, photo for photo, itinerary for itinerary and count for
// count, on both cities' POIs at their own itinerary counts and seeds and
// at other seeds, and on a few-POI prefix whose itineraries run out of
// unvisited POIs, so the draw that finds no weight left is exercised.
func TestSimulateMatchesReference(t *testing.T) {
	for _, spec := range []citySpec{cities["NYC"], cities["Paris"]} {
		for _, tc := range []struct {
			pois        []poiDef
			itineraries int
			seed        int64
		}{
			{spec.pois, spec.itineraries, spec.seed},
			{spec.pois, 700, 1},
			{spec.pois, 700, 2},
			{spec.pois[:3], 300, 3},
		} {
			photos, its, counts := simulate(tc.pois, tc.itineraries, tc.seed)
			wantPhotos, wantIts, wantCounts := simulateReference(tc.pois, tc.itineraries, tc.seed)
			if !reflect.DeepEqual(photos, wantPhotos) || !reflect.DeepEqual(its, wantIts) || !reflect.DeepEqual(counts, wantCounts) {
				t.Fatalf("%s, %d POIs, %d itineraries, seed %d: simulate differs from the reference",
					spec.name, len(tc.pois), tc.itineraries, tc.seed)
			}
		}
	}
}

// BenchmarkTripCities builds both built-in cities, photo-log simulation
// included: the work the first use of any built-in instance does in a
// fresh process.
func BenchmarkTripCities(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if NYC() == nil || Paris() == nil {
			b.Fatal("no city")
		}
	}
}
