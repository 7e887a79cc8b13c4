package rlplanner

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/rlplanner/rlplanner/internal/bitset"
	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/prereq"
	"github.com/rlplanner/rlplanner/internal/seqsim"
	"github.com/rlplanner/rlplanner/internal/topics"
)

// ItemSpec describes one item of a custom instance. The JSON field names
// match the export format of cmd/datagen, so exported datasets round-trip
// through LoadInstance.
type ItemSpec struct {
	// ID uniquely identifies the item.
	ID string `json:"id"`
	// Name is the human-readable title (defaults to ID).
	Name string `json:"name,omitempty"`
	// Description is an optional catalog blurb (informational only).
	Description string `json:"description,omitempty"`
	// Type is "primary" or "secondary" (default).
	Type string `json:"type,omitempty"`
	// Credits is the credit hours / visit hours; must be positive.
	Credits float64 `json:"credits"`
	// Prereq is an AND/OR expression over item ids, e.g.
	// "Linear Algebra AND Data Mining" or "(A OR B) AND C"; empty = none.
	Prereq string `json:"prereq,omitempty"`
	// Topics lists topic names the item covers; all must appear in the
	// instance's topic list.
	Topics []string `json:"topics"`
	// Category is an optional grouping index (sub-discipline or dominant
	// theme); -1 / omitted = none. Required when ThemeGap is set.
	Category *int `json:"category,omitempty"`
	// Lat and Lon position POIs for the distance threshold, in degrees:
	// NewInstance refuses a latitude outside [-90, 90] and a longitude
	// outside [-180, 180].
	Lat float64 `json:"lat,omitempty"`
	Lon float64 `json:"lon,omitempty"`
	// Popularity is the POI popularity on 1–5 (trips).
	Popularity float64 `json:"popularity,omitempty"`
}

// InstanceSpec describes a custom planning instance.
type InstanceSpec struct {
	// Name identifies the instance.
	Name string `json:"name"`
	// Kind is "course" (default) or "trip". Trips treat Credits as a time
	// ceiling and end plans when it is spent; courses treat it as a floor
	// and plan exactly Primary+Secondary items.
	Kind string `json:"kind,omitempty"`
	// Topics is the topic/theme vocabulary.
	Topics []string `json:"topics"`
	// Items is the catalog.
	Items []ItemSpec `json:"items"`
	// Credits is #cr: the credit floor (courses) or time budget (trips).
	Credits float64 `json:"credits"`
	// Primary and Secondary give the plan split; both zero for
	// budget-only trips.
	Primary   int `json:"primary"`
	Secondary int `json:"secondary"`
	// Gap is the minimum distance between an item and its antecedents.
	Gap int `json:"gap"`
	// MaxDistanceKm is the trip distance threshold d (0 disables).
	MaxDistanceKm float64 `json:"max_distance_km,omitempty"`
	// ThemeGap forbids consecutive same-category items.
	ThemeGap bool `json:"theme_gap,omitempty"`
	// Template optionally lists interleaving permutations like
	// "primary, secondary, secondary"; empty derives one from the split.
	Template []string `json:"template,omitempty"`
	// IdealTopics optionally restricts T_ideal; empty = every topic.
	IdealTopics []string `json:"ideal_topics,omitempty"`
	// DefaultStart is the default starting item id (defaults to the first
	// primary item, or the first item).
	DefaultStart string `json:"default_start,omitempty"`
	// GoldScore optionally pins the gold bound; 0 derives it (plan length
	// for courses, 5 for trips).
	GoldScore float64 `json:"gold_score,omitempty"`
}

// NewInstance builds a planning instance from a spec. The instance works
// with every facility of this package: planners, baselines, the gold
// synthesizer, transfer and the rater panel.
func NewInstance(spec InstanceSpec) (*Instance, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("rlplanner: instance needs a name")
	}
	isTrip := false
	switch spec.Kind {
	case "", "course":
	case "trip":
		isTrip = true
	default:
		return nil, fmt.Errorf("rlplanner: kind %q, want \"course\" or \"trip\"", spec.Kind)
	}
	vocab, err := topics.NewVocabulary(spec.Topics)
	if err != nil {
		return nil, fmt.Errorf("rlplanner: %w", err)
	}

	items := make([]item.Item, len(spec.Items))
	for i, s := range spec.Items {
		if err := checkItemNumbers(s); err != nil {
			return nil, fmt.Errorf("rlplanner: item %q: %w", s.ID, err)
		}
		ty := item.Secondary
		switch s.Type {
		case "primary":
			ty = item.Primary
		case "", "secondary":
		default:
			return nil, fmt.Errorf("rlplanner: item %q type %q, want \"primary\" or \"secondary\"", s.ID, s.Type)
		}
		vec, err := vocab.Vector(s.Topics...)
		if err != nil {
			return nil, fmt.Errorf("rlplanner: item %q: %w", s.ID, err)
		}
		expr, err := prereq.Parse(s.Prereq)
		if err != nil {
			return nil, fmt.Errorf("rlplanner: item %q: %w", s.ID, err)
		}
		name := s.Name
		if name == "" {
			name = s.ID
		}
		cat := item.NoCategory
		if s.Category != nil {
			cat = *s.Category
		}
		items[i] = item.Item{
			ID: s.ID, Name: name, Description: s.Description,
			Type: ty, Credits: s.Credits,
			Prereq: expr, Topics: vec, Category: cat,
			Lat: s.Lat, Lon: s.Lon, Popularity: s.Popularity,
		}
	}
	catalog, err := item.NewCatalog(vocab, items)
	if err != nil {
		return nil, fmt.Errorf("rlplanner: %w", err)
	}

	mode := constraints.MinCredits
	if isTrip {
		mode = constraints.MaxCredits
	}
	hard := constraints.Hard{
		Credits:       spec.Credits,
		CreditMode:    mode,
		Primary:       spec.Primary,
		Secondary:     spec.Secondary,
		Gap:           spec.Gap,
		MaxDistanceKm: spec.MaxDistanceKm,
		ThemeGap:      spec.ThemeGap,
	}

	var tpl constraints.Template
	if len(spec.Template) > 0 {
		tpl, err = constraints.ParseTemplate(spec.Template...)
		if err != nil {
			return nil, fmt.Errorf("rlplanner: %w", err)
		}
	} else if hard.Length() > 0 {
		tpl = dataset.MakeTemplate(hard.Primary, hard.Secondary)
	} else {
		tpl = dataset.MakeTemplate(2, 3)
	}

	ideal := bitset.New(vocab.Len())
	if len(spec.IdealTopics) == 0 {
		for i := 0; i < vocab.Len(); i++ {
			ideal.Set(i)
		}
	} else {
		ideal, err = vocab.Vector(spec.IdealTopics...)
		if err != nil {
			return nil, fmt.Errorf("rlplanner: ideal topics: %w", err)
		}
	}

	start := spec.DefaultStart
	if start == "" {
		if p := catalog.Primaries(); len(p) > 0 {
			start = catalog.At(p[0]).ID
		} else if catalog.Len() > 0 {
			start = catalog.At(0).ID
		}
	}

	goldScore := spec.GoldScore
	if goldScore == 0 {
		if isTrip {
			goldScore = 5
		} else {
			goldScore = float64(hard.Length())
		}
	}

	defaults := dataset.Defaults{
		Episodes: 500,
		Alpha:    0.75, Gamma: 0.95,
		Epsilon: 0.0025,
		Delta:   0.8, Beta: 0.2,
		W1: 0.6, W2: 0.4,
		Sim: seqsim.Average,
	}
	kind := dataset.CoursePlanning
	if isTrip {
		kind = dataset.TripPlanning
		defaults.Alpha, defaults.Gamma = 0.95, 0.75
		defaults.Delta, defaults.Beta = 0.6, 0.4
	}

	inner := &dataset.Instance{
		Name:         spec.Name,
		Kind:         kind,
		Catalog:      catalog,
		Hard:         hard,
		Soft:         constraints.Soft{Ideal: ideal, Template: tpl},
		DefaultStart: start,
		Defaults:     defaults,
		GoldScore:    goldScore,
	}
	if err := inner.Validate(); err != nil {
		return nil, fmt.Errorf("rlplanner: %w", err)
	}
	return &Instance{inner: inner}, nil
}

// checkItemNumbers rejects the numbers no item may carry: a credit,
// popularity or coordinate that is not finite, a latitude outside
// [-90, 90] and a longitude outside [-180, 180]. The distance store
// grids a catalog by its coordinates' span, and a span it cannot divide
// by would index outside the grid when the first plan is trained.
func checkItemNumbers(s ItemSpec) error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"credits", s.Credits}, {"popularity", s.Popularity}, {"lat", s.Lat}, {"lon", s.Lon}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s %v is not finite", f.name, f.v)
		}
	}
	if math.Abs(s.Lat) > 90 {
		return fmt.Errorf("lat %v outside [-90, 90]", s.Lat)
	}
	if math.Abs(s.Lon) > 180 {
		return fmt.Errorf("lon %v outside [-180, 180]", s.Lon)
	}
	return nil
}

// Spec exports the instance back into its spec form (usable with
// NewInstance and as JSON). Built-in instances export faithfully, so a
// dataset can be dumped, edited and reloaded.
func (in *Instance) Spec() InstanceSpec {
	inner := in.inner
	vocab := inner.Catalog.Vocabulary()
	spec := InstanceSpec{
		Name:          inner.Name,
		Kind:          inner.Kind.String(),
		Topics:        vocab.Names(),
		Credits:       inner.Hard.Credits,
		Primary:       inner.Hard.Primary,
		Secondary:     inner.Hard.Secondary,
		Gap:           inner.Hard.Gap,
		MaxDistanceKm: inner.Hard.MaxDistanceKm,
		ThemeGap:      inner.Hard.ThemeGap,
		DefaultStart:  inner.DefaultStart,
		GoldScore:     inner.GoldScore,
	}
	for _, perm := range inner.Soft.Template {
		var parts []byte
		for j, t := range perm {
			if j > 0 {
				parts = append(parts, ", "...)
			}
			parts = append(parts, t.String()...)
		}
		spec.Template = append(spec.Template, string(parts))
	}
	if inner.Soft.Ideal.Count() != vocab.Len() {
		spec.IdealTopics = vocab.Decode(inner.Soft.Ideal)
	}
	for i := 0; i < inner.Catalog.Len(); i++ {
		m := inner.Catalog.At(i)
		is := ItemSpec{
			ID: m.ID, Name: m.Name, Description: m.Description,
			Type: m.Type.String(), Credits: m.Credits,
			Topics: vocab.Decode(m.Topics),
			Lat:    m.Lat, Lon: m.Lon, Popularity: m.Popularity,
		}
		if m.Prereq != nil {
			is.Prereq = m.Prereq.String()
		}
		if m.Category != item.NoCategory {
			cat := m.Category
			is.Category = &cat
		}
		spec.Items = append(spec.Items, is)
	}
	return spec
}

// WriteJSON writes the instance's spec as indented JSON (the cmd/datagen
// export format).
func (in *Instance) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(in.Spec())
}

// LoadInstance reads a JSON instance spec (as written by WriteJSON or
// cmd/datagen) and builds the instance.
func LoadInstance(r io.Reader) (*Instance, error) {
	var spec InstanceSpec
	if err := json.NewDecoder(r).Decode(&spec); err != nil {
		return nil, fmt.Errorf("rlplanner: decode instance: %w", err)
	}
	return NewInstance(spec)
}
