// Package synth generates parameterized random planning instances — the
// workload generator behind the scaling studies and the randomized
// property tests. Generated catalogs are always well-formed: prerequisite
// references point at lower-indexed items (acyclic by construction), every
// plan split is feasible from prereq-free items, and topic vectors use a
// configurable overlap skew so the ε coverage gate binds realistically.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/rlplanner/rlplanner/internal/bitset"
	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/prereq"
	"github.com/rlplanner/rlplanner/internal/seqsim"
	"github.com/rlplanner/rlplanner/internal/topics"
)

// Params controls generation. Zero values take the documented defaults.
type Params struct {
	// Name identifies the instance (default "synthetic").
	Name string
	// Items is the catalog size |I| (default 30).
	Items int
	// Topics is the vocabulary size |T| (default 2·Items).
	Topics int
	// TopicsPerItem is the mean number of topics per item (default 4).
	TopicsPerItem int
	// TopicSkew ≥ 1 concentrates topic draws on the low indices (hot
	// themes); 1 = uniform (default 2.5, the datasets' setting).
	TopicSkew float64
	// PrereqDensity is the fraction of items carrying a prerequisite
	// expression (default 0.25).
	PrereqDensity float64
	// OrProbability is the chance a prerequisite is an OR of two
	// antecedents rather than a single reference (default 0.5).
	OrProbability float64
	// Primary and Secondary give the plan split (defaults 5 and 5).
	Primary, Secondary int
	// Gap is the antecedent gap (default 3).
	Gap int
	// CreditsPerItem is cr^m for every item (default 3).
	CreditsPerItem float64
	// Geo scatters the items over a clustered city-scale map (lat/lon)
	// and enables the distance constraint, so generated instances
	// exercise the environment's distance store. Off by default.
	Geo bool
	// MaxDistanceKm is the hard distance budget when Geo is set
	// (default 1e6 km — unbounded, since no great-circle leg exceeds
	// π·R ≈ 20 015 km, so feasibility matches the non-geo instance; the
	// episode then skips every per-candidate leg check and reads the
	// distance store only for the legs it admits).
	MaxDistanceKm float64
	// Seed drives generation; equal Params generate equal instances.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.Name == "" {
		p.Name = "synthetic"
	}
	if p.Items == 0 {
		p.Items = 30
	}
	if p.Topics == 0 {
		p.Topics = 2 * p.Items
	}
	if p.TopicsPerItem == 0 {
		p.TopicsPerItem = 4
	}
	if p.TopicSkew == 0 {
		p.TopicSkew = 2.5
	}
	if p.PrereqDensity == 0 {
		p.PrereqDensity = 0.25
	}
	if p.OrProbability == 0 {
		p.OrProbability = 0.5
	}
	if p.Primary == 0 {
		p.Primary = 5
	}
	if p.Secondary == 0 {
		p.Secondary = 5
	}
	if p.Gap == 0 {
		p.Gap = 3
	}
	if p.CreditsPerItem == 0 {
		p.CreditsPerItem = 3
	}
	if p.Geo && p.MaxDistanceKm == 0 {
		p.MaxDistanceKm = 1e6
	}
	return p
}

// validate rejects infeasible parameter combinations.
func (p Params) validate() error {
	if p.Items < p.Primary+p.Secondary {
		return fmt.Errorf("synth: %d items cannot hold a %d+%d plan",
			p.Items, p.Primary, p.Secondary)
	}
	if p.TopicsPerItem > p.Topics {
		return fmt.Errorf("synth: %d topics per item exceeds vocabulary %d",
			p.TopicsPerItem, p.Topics)
	}
	if p.PrereqDensity < 0 || p.PrereqDensity > 1 {
		return fmt.Errorf("synth: prereq density %g out of [0,1]", p.PrereqDensity)
	}
	if p.TopicSkew < 1 {
		return fmt.Errorf("synth: topic skew %g < 1", p.TopicSkew)
	}
	return nil
}

// Generate builds a random course-planning instance.
func Generate(params Params) (*dataset.Instance, error) {
	p := params.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))

	names := make([]string, p.Topics)
	for i := range names {
		names[i] = fmt.Sprintf("topic-%03d", i)
	}
	vocab, err := topics.NewVocabulary(names)
	if err != nil {
		return nil, err
	}

	items := make([]item.Item, p.Items)
	for i := range items {
		// The first Primary+Secondary items are prereq-free and typed to
		// guarantee feasibility; the rest are typed randomly with a 1:2
		// primary:secondary ratio.
		ty := item.Secondary
		switch {
		case i < p.Primary:
			ty = item.Primary
		case i < p.Primary+p.Secondary:
			// secondary
		case rng.Intn(3) == 0:
			ty = item.Primary
		}

		vec := bitset.New(p.Topics)
		draws := 1 + p.TopicsPerItem/2 + rng.Intn(p.TopicsPerItem)
		for k := 0; k < draws; k++ {
			vec.Set(skewed(rng, p.Topics, p.TopicSkew))
		}

		var pre prereq.Expr
		if i >= p.Primary+p.Secondary && rng.Float64() < p.PrereqDensity {
			a := prereq.Ref(id(rng.Intn(i)))
			if rng.Float64() < p.OrProbability {
				b := prereq.Ref(id(rng.Intn(i)))
				pre = prereq.Or{a, b}
			} else {
				pre = a
			}
		}

		items[i] = item.Item{
			ID:      id(i),
			Name:    fmt.Sprintf("Synthetic Item %d", i),
			Type:    ty,
			Credits: p.CreditsPerItem,
			Prereq:  pre,
			// Compact here, not just in NewCatalog: at catalog scale the
			// dense draw vectors would otherwise all be live at once
			// (items × vocabulary/8 bytes) until the catalog is built.
			Topics:   vec.Compact(),
			Category: item.NoCategory,
		}
		if p.Geo {
			lat, lon := geoPoint(rng, i)
			items[i].Lat, items[i].Lon = lat, lon
		}
	}
	catalog, err := item.NewCatalog(vocab, items)
	if err != nil {
		return nil, err
	}

	hard := constraints.Hard{
		Credits:    p.CreditsPerItem * float64(p.Primary+p.Secondary),
		CreditMode: constraints.MinCredits,
		Primary:    p.Primary,
		Secondary:  p.Secondary,
		Gap:        p.Gap,
	}
	if p.Geo {
		hard.MaxDistanceKm = p.MaxDistanceKm
	}
	// T_ideal is the hot end of the vocabulary, capped at 256 topics: the
	// skewed draws concentrate there, and a bounded ideal set keeps the ε
	// coverage gate (gain/|T_ideal| ≥ ε) meaningful at every vocabulary
	// size — an ideal set that grew with the vocabulary would push every
	// per-item gain below ε and zero out all rewards at catalog scale.
	idealN := p.Topics
	if idealN > 256 {
		idealN = 256
	}
	ideal := bitset.New(p.Topics)
	for i := 0; i < idealN; i++ {
		ideal.Set(i)
	}
	inst := &dataset.Instance{
		Name:         p.Name,
		Kind:         dataset.CoursePlanning,
		Catalog:      catalog,
		Hard:         hard,
		Soft:         constraints.Soft{Ideal: ideal, Template: dataset.MakeTemplate(p.Primary, p.Secondary)},
		DefaultStart: id(0),
		Defaults: dataset.Defaults{
			Episodes: 500, Alpha: 0.75, Gamma: 0.95, Epsilon: 0.0025,
			Delta: 0.8, Beta: 0.2, W1: 0.6, W2: 0.4, Sim: seqsim.Average,
		},
		GoldScore: float64(p.Primary + p.Secondary),
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// MustGenerate is Generate that panics on error, for benchmarks.
func MustGenerate(params Params) *dataset.Instance {
	inst, err := Generate(params)
	if err != nil {
		panic(err)
	}
	return inst
}

// id names the i-th synthetic item.
func id(i int) string { return fmt.Sprintf("S-%03d", i) }

// geoPoint places the i-th item on a clustered city-scale map: eight
// gaussian neighborhoods inside a ~0.5°×0.5° box around a fixed center,
// so nearest-neighbor structure exists for the distance store's bands
// to capture.
func geoPoint(rng *rand.Rand, i int) (lat, lon float64) {
	const centerLat, centerLon = 40.75, -73.98
	cluster := i % 8
	clat := centerLat + 0.25*math.Sin(float64(cluster))
	clon := centerLon + 0.25*math.Cos(float64(cluster)*2.3)
	return clat + rng.NormFloat64()*0.02, clon + rng.NormFloat64()*0.02
}

// skewed samples an index in [0, n) with density ∝ rank^-1/(skew-ish):
// skew 1 is uniform, larger skews concentrate on low indices.
func skewed(rng *rand.Rand, n int, skew float64) int {
	i := int(float64(n) * math.Pow(rng.Float64(), skew))
	if i >= n {
		i = n - 1
	}
	return i
}
