package rlplanner

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

// toySpec is a small custom course instance modeled on Table II.
func toySpec() InstanceSpec {
	return InstanceSpec{
		Name:   "Toy DS",
		Topics: []string{"algorithms", "classification", "clustering", "statistics", "linear-systems", "data-management"},
		Items: []ItemSpec{
			{ID: "DSA", Type: "primary", Credits: 3, Topics: []string{"algorithms"}},
			{ID: "DM", Type: "secondary", Credits: 3, Topics: []string{"classification", "clustering"}},
			{ID: "DA", Type: "primary", Credits: 3, Topics: []string{"statistics"}},
			{ID: "LA", Type: "secondary", Credits: 3, Topics: []string{"linear-systems"}},
			{ID: "BD", Type: "secondary", Credits: 3, Prereq: "DM OR DA", Topics: []string{"data-management"}},
			{ID: "ML", Type: "primary", Credits: 3, Prereq: "LA AND DM", Topics: []string{"classification", "clustering"}},
		},
		Credits: 18, Primary: 3, Secondary: 3, Gap: 2,
	}
}

func TestNewInstanceToyEndToEnd(t *testing.T) {
	inst, err := NewInstance(toySpec())
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumItems() != 6 || inst.IsTrip() {
		t.Fatalf("shape: items=%d trip=%v", inst.NumItems(), inst.IsTrip())
	}
	if inst.GoldScore() != 6 {
		t.Fatalf("derived gold = %v, want plan length 6", inst.GoldScore())
	}
	if inst.DefaultStart() != "DSA" {
		t.Fatalf("default start = %q, want first primary", inst.DefaultStart())
	}

	p, err := Train(context.Background(), inst, "sarsa", Options{Episodes: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Recommend("")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 6 {
		t.Fatalf("plan = %d steps", len(plan.Steps))
	}
	if !plan.SatisfiesConstraints {
		t.Fatalf("custom-instance plan violates constraints: %v", plan.Violations)
	}

	// The gold synthesizer works on custom instances too.
	g, err := GoldStandard(inst)
	if err != nil {
		t.Fatal(err)
	}
	if g.Score != 6 {
		t.Fatalf("gold score = %v", g.Score)
	}
}

func TestNewInstanceValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*InstanceSpec)
	}{
		{"empty name", func(s *InstanceSpec) { s.Name = "" }},
		{"bad kind", func(s *InstanceSpec) { s.Kind = "voyage" }},
		{"bad item type", func(s *InstanceSpec) { s.Items[0].Type = "tertiary" }},
		{"unknown topic", func(s *InstanceSpec) { s.Items[0].Topics = []string{"quantum"} }},
		{"dangling prereq", func(s *InstanceSpec) { s.Items[0].Prereq = "GHOST" }},
		{"bad prereq syntax", func(s *InstanceSpec) { s.Items[0].Prereq = "A AND (" }},
		{"duplicate topics", func(s *InstanceSpec) { s.Topics = []string{"a", "a"} }},
		{"bad template token", func(s *InstanceSpec) { s.Template = []string{"primary, ternary"} }},
		{"template split mismatch", func(s *InstanceSpec) { s.Template = []string{"primary, secondary"} }},
		{"unknown ideal topic", func(s *InstanceSpec) { s.IdealTopics = []string{"ghost"} }},
		{"unknown start", func(s *InstanceSpec) { s.DefaultStart = "GHOST" }},
		{"negative credits", func(s *InstanceSpec) { s.Items[0].Credits = -1 }},
		{"NaN credits", func(s *InstanceSpec) { s.Items[0].Credits = math.NaN() }},
		{"infinite popularity", func(s *InstanceSpec) { s.Items[0].Popularity = math.Inf(1) }},
		{"NaN latitude", func(s *InstanceSpec) { s.Items[0].Lat = math.NaN() }},
		{"infinite longitude", func(s *InstanceSpec) { s.Items[0].Lon = math.Inf(-1) }},
		{"latitude past a pole", func(s *InstanceSpec) { s.Items[1].Lat = 90.5 }},
		{"latitude past the south pole", func(s *InstanceSpec) { s.Items[1].Lat = -91 }},
		{"longitude past the antimeridian", func(s *InstanceSpec) { s.Items[1].Lon = 1e308 }},
		{"longitude past the antimeridian westward", func(s *InstanceSpec) { s.Items[1].Lon = -180.001 }},
	}
	for _, tc := range cases {
		spec := toySpec()
		tc.mutate(&spec)
		if _, err := NewInstance(spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestNewInstanceAcceptsCoordinateBounds: the poles and the
// antimeridian themselves are valid positions.
func TestNewInstanceAcceptsCoordinateBounds(t *testing.T) {
	spec := toySpec()
	for i, p := range [][2]float64{{90, 180}, {-90, -180}, {0, 0}} {
		spec.Items[i].Lat, spec.Items[i].Lon = p[0], p[1]
	}
	if _, err := NewInstance(spec); err != nil {
		t.Fatal(err)
	}
}

func TestNewInstanceTripDefaults(t *testing.T) {
	spec := InstanceSpec{
		Name:   "Toy City",
		Kind:   "trip",
		Topics: []string{"museum", "park", "cafe"},
		Items: []ItemSpec{
			{ID: "big museum", Type: "primary", Credits: 2, Topics: []string{"museum"}, Popularity: 5, Lat: 48.86, Lon: 2.34},
			{ID: "green park", Credits: 1, Topics: []string{"park"}, Popularity: 3, Lat: 48.85, Lon: 2.35},
			{ID: "corner cafe", Credits: 1, Topics: []string{"cafe"}, Popularity: 4, Lat: 48.86, Lon: 2.33},
		},
		Credits: 4,
	}
	inst, err := NewInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.IsTrip() || inst.GoldScore() != 5 {
		t.Fatalf("trip derivation wrong: trip=%v gold=%v", inst.IsTrip(), inst.GoldScore())
	}
	p, err := Train(context.Background(), inst, "sarsa", Options{Episodes: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Recommend("")
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalCredits > 4 {
		t.Fatalf("trip exceeded budget: %v", plan.TotalCredits)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	// Built-in instances must export and reload faithfully.
	for _, name := range []string{"Univ-1 M.S. DS-CT", "Paris"} {
		orig, err := InstanceByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := orig.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadInstance(&buf)
		if err != nil {
			t.Fatalf("%s: reload: %v", name, err)
		}
		if loaded.NumItems() != orig.NumItems() {
			t.Fatalf("%s: %d items after round trip, want %d",
				name, loaded.NumItems(), orig.NumItems())
		}
		if loaded.GoldScore() != orig.GoldScore() || loaded.DefaultStart() != orig.DefaultStart() {
			t.Fatalf("%s: metadata changed in round trip", name)
		}
		// Item-level fidelity.
		li, oi := loaded.Items(), orig.Items()
		for i := range oi {
			if li[i].ID != oi[i].ID || li[i].Primary != oi[i].Primary ||
				li[i].Credits != oi[i].Credits || li[i].Prerequisite != oi[i].Prerequisite {
				t.Fatalf("%s: item %d differs: %+v vs %+v", name, i, li[i], oi[i])
			}
		}
	}
}

func TestRoundTrippedInstancePlans(t *testing.T) {
	orig, _ := InstanceByName("Univ-1 M.S. DS-CT")
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Planning on the reloaded instance matches planning on the original.
	a, err := Train(context.Background(), orig, "sarsa", Options{Episodes: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(context.Background(), loaded, "sarsa", Options{Episodes: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := a.Recommend("")
	pb, _ := b.Recommend("")
	if strings.Join(pa.IDs(), "|") != strings.Join(pb.IDs(), "|") {
		t.Fatalf("round-tripped instance plans differently:\n%v\n%v", pa.IDs(), pb.IDs())
	}
}

func TestLoadInstanceRejectsGarbage(t *testing.T) {
	if _, err := LoadInstance(strings.NewReader("{")); err == nil {
		t.Fatal("truncated json accepted")
	}
	if _, err := LoadInstance(strings.NewReader(`{"name":""}`)); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestGenerateInstancePublicAPI(t *testing.T) {
	inst, err := GenerateInstance(GenParams{Items: 40, Seed: 5, PrereqDensity: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumItems() != 40 {
		t.Fatalf("items = %d", inst.NumItems())
	}
	// Generated instances round-trip through the JSON spec.
	var buf bytes.Buffer
	if err := inst.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumItems() != 40 {
		t.Fatal("round trip lost items")
	}
	// And they plan end to end.
	p, err := Train(context.Background(), loaded, "sarsa", Options{Episodes: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Recommend("")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 10 {
		t.Fatalf("plan = %d steps", len(plan.Steps))
	}
	// Invalid parameters surface.
	if _, err := GenerateInstance(GenParams{Items: 4, Primary: 5, Secondary: 5}); err == nil {
		t.Fatal("infeasible params accepted")
	}
}
