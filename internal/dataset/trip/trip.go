package trip

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/rlplanner/rlplanner/internal/bitset"
	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/prereq"
	"github.com/rlplanner/rlplanner/internal/seqsim"
	"github.com/rlplanner/rlplanner/internal/topics"
)

// Photo is one simulated geo-tagged photo record — the raw unit of the
// Flickr substrate. Photos taken by the same user on the same day form an
// itinerary, exactly as the paper derives itineraries from photo tags and
// timestamps (§IV-A1).
type Photo struct {
	// User identifies the photographer.
	User int
	// POI is the catalog index of the photographed POI.
	POI int
	// Day is the day number of the trip.
	Day int
	// Hour is the time of day, used to order a day's photos.
	Hour float64
}

// Itinerary is the ordered sequence of POI indices one user visited in one
// day.
type Itinerary []int

// CityData is one trip-planning dataset: the instance plus the simulated
// photo log it was derived from.
type CityData struct {
	// Instance is the planning problem (catalog, constraints, defaults).
	Instance *dataset.Instance
	// Photos is the simulated photo log.
	Photos []Photo
	// Itineraries are the user-day groupings of Photos.
	Itineraries []Itinerary
	// VisitCounts is the per-POI itinerary frequency behind Popularity.
	VisitCounts []int
}

// GroupItineraries reconstructs itineraries from a photo log by grouping
// photos by (user, day), ordering each group by hour and collapsing
// consecutive photos of the same POI.
func GroupItineraries(photos []Photo) []Itinerary {
	type key struct{ user, day int }
	groups := make(map[key][]Photo)
	var order []key
	for _, p := range photos {
		k := key{p.User, p.Day}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], p)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].user != order[j].user {
			return order[i].user < order[j].user
		}
		return order[i].day < order[j].day
	})
	out := make([]Itinerary, 0, len(order))
	for _, k := range order {
		ps := groups[k]
		sort.Slice(ps, func(i, j int) bool { return ps[i].Hour < ps[j].Hour })
		var it Itinerary
		for _, p := range ps {
			if len(it) == 0 || it[len(it)-1] != p.POI {
				it = append(it, p.POI)
			}
		}
		out = append(out, it)
	}
	return out
}

// simulate draws nItineraries user-days of POI visits. Visit propensity is
// popularity-skewed (primary POIs and low-index POIs attract more visits),
// theme-diverse (consecutive same-theme visits are discouraged, matching
// the paper's observed visiting behaviour that motivates the theme-gap
// rule) and distance-decayed (nearby POIs chain together).
func simulate(defs []poiDef, nItineraries int, seed int64) ([]Photo, []Itinerary, []int) {
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

	// decay[p*n+i] is the distance decay of a step from POI p to POI i,
	// ~2 km half-weight. A pair's decay is the same float64 on every
	// draw, so it is computed once per ordered pair rather than per draw.
	decay := make([]float64, n*n)
	for p, from := range defs {
		for i, to := range defs {
			d := geo.Haversine(geo.Point{Lat: from.lat, Lon: from.lon}, geo.Point{Lat: to.lat, Lon: to.lon})
			decay[p*n+i] = 1 / (1 + d/2)
		}
	}

	var photos []Photo
	counts := make([]int, n)
	itineraries := make([]Itinerary, 0, nItineraries)
	const itinerariesPerUser = 2
	weights := make([]float64, n)
	visited := make([]bool, n) // the current itinerary's POIs

	for itIdx := 0; itIdx < nItineraries; itIdx++ {
		user := itIdx / itinerariesPerUser
		day := itIdx % itinerariesPerUser
		length := 2 + rng.Intn(4) // 2–5 POIs per day
		var it Itinerary
		prev := -1
		hour := 9 + rng.Float64()*2
		for len(it) < length {
			poi := samplePOI(rng, defs, base, decay, visited, prev, weights)
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
		for _, poi := range it {
			visited[poi] = false
		}
		itineraries = append(itineraries, it)
	}
	return photos, itineraries, counts
}

// samplePOI draws the next POI for an itinerary, weighing each unvisited
// POI by its base attractiveness, the theme-diversity penalty and the
// distance decay from prev. weights is scratch space of one slot per POI.
func samplePOI(rng *rand.Rand, defs []poiDef, base, decay []float64, visited []bool, prev int, weights []float64) int {
	n := len(defs)
	var total float64
	for i := range defs {
		if visited[i] {
			weights[i] = 0
			continue
		}
		w := base[i]
		if prev >= 0 {
			if defs[i].cat == defs[prev].cat {
				w *= 0.2 // theme diversity
			}
			w *= decay[prev*n+i]
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
	return n - 1
}

// popularity maps itinerary visit counts onto the 1–5 scale; the most
// visited POI scores exactly 5 — the paper's gold-standard bound (§IV-A2).
func popularity(counts []int) []float64 {
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	out := make([]float64, len(counts))
	logMax := math.Log1p(float64(maxCount))
	for i, c := range counts {
		if maxCount == 0 {
			out[i] = 1
			continue
		}
		// Log-scaled: visit counts are heavy-tailed, and a linear scale
		// would collapse everything but the single most-visited POI.
		out[i] = 1 + 4*math.Log1p(float64(c))/logMax
	}
	return out
}

// citySpec bundles the static description of one city.
type citySpec struct {
	name         string
	themes       []string
	pois         []poiDef
	itineraries  int
	seed         int64
	start        string
	museumsForGo []string // antecedents for restaurants: museums/galleries
}

var cities = map[string]citySpec{
	"NYC": {
		name:        "NYC",
		themes:      nycThemes,
		pois:        nycPOIs,
		itineraries: 2908,
		seed:        0xA1,
		start:       "rockefeller center",
		museumsForGo: []string{
			"metropolitan museum of art", "museum of modern art",
		},
	},
	"Paris": {
		name:        "Paris",
		themes:      parisThemes,
		pois:        parisPOIs,
		itineraries: 5494,
		seed:        0xB2,
		start:       "louvre museum",
		museumsForGo: []string{
			"louvre museum", "musée d'orsay",
		},
	},
}

// build assembles the CityData for one city spec.
func build(spec citySpec) (*CityData, error) {
	photos, itineraries, counts := simulate(spec.pois, spec.itineraries, spec.seed)
	pops := popularity(counts)

	vocab, err := topics.NewVocabulary(spec.themes)
	if err != nil {
		return nil, err
	}

	// Restaurants are antecedent-bound to the city's flagship museums
	// ("visit a museum before a restaurant/cafe", §II-B.2).
	restaurantTheme := -1
	for i, th := range spec.themes {
		if th == "restaurant" {
			restaurantTheme = i
		}
	}
	var museumRefs prereq.Or
	for _, id := range spec.museumsForGo {
		museumRefs = append(museumRefs, prereq.Ref(id))
	}

	items := make([]item.Item, len(spec.pois))
	for i, d := range spec.pois {
		vec := bitset.New(vocab.Len())
		vec.Set(d.cat)
		for _, e := range d.extra {
			vec.Set(e)
		}
		var pre prereq.Expr
		if d.cat == restaurantTheme {
			pre = museumRefs
		}
		ty := item.Secondary
		if d.primary {
			ty = item.Primary
		}
		items[i] = item.Item{
			ID:         d.name,
			Name:       d.name,
			Type:       ty,
			Credits:    d.hours,
			Prereq:     pre,
			Topics:     vec,
			Category:   d.cat,
			Lat:        d.lat,
			Lon:        d.lon,
			Popularity: pops[i],
		}
	}
	catalog, err := item.NewCatalog(vocab, items)
	if err != nil {
		return nil, err
	}

	// §IV-A1: for the city datasets "the hard constraint is considered as
	// the total time that one will allocate for visitation", plus the
	// distance threshold d and the no-consecutive-same-theme gap — the
	// 2-primary/3-secondary split belongs to the toy Example 2 only
	// (Table VIII reports valid itineraries of 3–5 POIs). Primary and
	// Secondary are therefore zero here: no length/split requirement.
	hard := constraints.Hard{
		Credits:       6, // time threshold t
		CreditMode:    constraints.MaxCredits,
		Gap:           1,
		MaxDistanceKm: 5, // distance threshold d
		ThemeGap:      true,
	}
	// T_ideal covers the full theme set (§IV-A3: |T_ideal| = 21 for NYC,
	// 16 for Paris).
	ideal := bitset.New(vocab.Len())
	for i := 0; i < vocab.Len(); i++ {
		ideal.Set(i)
	}
	inst := &dataset.Instance{
		Name:    spec.name,
		Kind:    dataset.TripPlanning,
		Catalog: catalog,
		Hard:    hard,
		// The interleaving template keeps the Example 2 shape (2 must-see
		// POIs woven between optional ones) even though plan length is
		// budget-determined.
		Soft:         constraints.Soft{Ideal: ideal, Template: dataset.MakeTemplate(2, 3)},
		DefaultStart: spec.start,
		Defaults: dataset.Defaults{
			Episodes: 500,
			Alpha:    0.95,
			Gamma:    0.75,
			Epsilon:  0.0025,
			Delta:    0.6, Beta: 0.4,
			W1: 0.6, W2: 0.4,
			Sim: seqsim.Average,
		},
		GoldScore: 5,
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return &CityData{
		Instance:    inst,
		Photos:      photos,
		Itineraries: itineraries,
		VisitCounts: counts,
	}, nil
}

// City returns the dataset for the named city ("NYC" or "Paris").
func City(name string) (*CityData, error) {
	spec, ok := cities[name]
	if !ok {
		return nil, fmt.Errorf("trip: unknown city %q", name)
	}
	return build(spec)
}

// mustCity panics on generator bugs.
func mustCity(name string) *CityData {
	c, err := City(name)
	if err != nil {
		panic(err)
	}
	return c
}

// NYC returns the New York dataset: 90 POIs, 21 themes, 2908 itineraries.
func NYC() *CityData { return mustCity("NYC") }

// Paris returns the Paris dataset: 114 POIs, 16 themes, 5494 itineraries.
func Paris() *CityData { return mustCity("Paris") }

// Instances returns the two trip instances.
func Instances() []*dataset.Instance {
	return []*dataset.Instance{NYC().Instance, Paris().Instance}
}
