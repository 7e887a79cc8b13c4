package rlplanner

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

func TestEnginesListing(t *testing.T) {
	names := Engines()
	if len(names) != 6 {
		t.Fatalf("Engines() = %v", names)
	}
	for _, want := range []string{"sarsa", "qlearning", "valueiter", "eda", "omega", "gold"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("engine %q missing from %v", want, names)
		}
	}
	if name, err := EngineName(""); err != nil || name != "sarsa" {
		t.Fatalf("EngineName(\"\") = %q, %v", name, err)
	}
	if name, err := EngineName("vi"); err != nil || name != "valueiter" {
		t.Fatalf("EngineName(vi) = %q, %v", name, err)
	}
	if _, err := EngineName("oracle"); err == nil {
		t.Fatal("unknown engine name accepted")
	}
}

func TestTrainAndRecommend(t *testing.T) {
	in, _ := InstanceByName("Univ-1 M.S. DS-CT")
	pol, err := Train(context.Background(), in, "sarsa", Options{Episodes: 120, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Engine() != "sarsa" || pol.Fingerprint() == "" {
		t.Fatalf("policy identity = %s/%s", pol.Engine(), pol.Fingerprint())
	}
	plan, err := pol.Recommend("")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 10 {
		t.Fatalf("plan = %d steps", len(plan.Steps))
	}
	// Explicit start item.
	from, err := pol.Recommend("CS 644")
	if err != nil {
		t.Fatal(err)
	}
	if from.Steps[0].ID != "CS 644" {
		t.Fatalf("plan starts at %s, want CS 644", from.Steps[0].ID)
	}
	if _, err := pol.Recommend("GHOST 1"); err == nil {
		t.Fatal("unknown start item accepted")
	}
	if _, err := Train(context.Background(), nil, "sarsa", Options{}); err == nil {
		t.Fatal("nil instance accepted")
	}
}

// TestTrainRefusesNonFiniteHyperparameters: NaN passes every range
// check written with "<" and ">". Accepted, a NaN α or γ trains a policy
// whose saved artifact LoadPolicyArtifact refuses, and a NaN δ or ε
// trains on a NaN or zero learning curve. Train refuses each, naming it.
func TestTrainRefusesNonFiniteHyperparameters(t *testing.T) {
	in, _ := InstanceByName("Univ-1 M.S. DS-CT")
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"α", Options{Seed: 1, Episodes: 20, Alpha: nan}},
		{"γ", Options{Seed: 1, Episodes: 20, Gamma: nan}},
		{"δ", Options{Seed: 1, Episodes: 20, Delta: nan, Beta: 0.2}},
		{"ε", Options{Seed: 1, Episodes: 20, Epsilon: nan}},
		{"distance threshold d", Options{Seed: 1, Episodes: 20, MaxDistanceKm: nan}},
	} {
		_, err := Train(context.Background(), in, "sarsa", tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s = NaN: err = %v, want a refusal naming %s", tc.name, err, tc.name)
		}
	}
}

func TestPolicyArtifactRoundTrip(t *testing.T) {
	in, _ := InstanceByName("Univ-1 M.S. DS-CT")
	pol, err := Train(context.Background(), in, "qlearning", Options{Episodes: 120, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pol.Recommend("")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pol.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPolicyArtifact(&buf, in, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Engine() != "qlearning" {
		t.Fatalf("loaded engine = %s", loaded.Engine())
	}
	got, err := loaded.Recommend("")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got.IDs(), "|") != strings.Join(want.IDs(), "|") {
		t.Fatalf("loaded artifact plans differently:\n%v\n%v", got.IDs(), want.IDs())
	}
}

func TestPolicyArtifactWrongInstance(t *testing.T) {
	dsct, _ := InstanceByName("Univ-1 M.S. DS-CT")
	nyc, _ := InstanceByName("NYC")
	pol, err := Train(context.Background(), dsct, "gold", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pol.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = LoadPolicyArtifact(&buf, nyc, Options{})
	if err == nil || !strings.Contains(err.Error(), "different catalog") {
		t.Fatalf("cross-catalog load: %v", err)
	}
}

// TestPlannerArtifactInterop: a policy transferred onto another
// instance is an ordinary artifact of that instance — Save writes the
// target's fingerprint and LoadPolicyArtifact restores the same plans.
func TestPlannerArtifactInterop(t *testing.T) {
	cs, _ := InstanceByName("Univ-1 M.S. CS")
	in, _ := InstanceByName("Univ-1 M.S. DS-CT")
	src, err := Train(context.Background(), cs, "sarsa", Options{Episodes: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, err := src.Transfer(in, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint() != in.Fingerprint() {
		t.Fatalf("transferred fingerprint %s, want the target's %s", p.Fingerprint(), in.Fingerprint())
	}
	want, err := p.Recommend("")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	pol, err := LoadPolicyArtifact(&buf, in, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pol.Recommend("")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got.IDs(), "|") != strings.Join(want.IDs(), "|") {
		t.Fatalf("interop plans differ:\n%v\n%v", got.IDs(), want.IDs())
	}
}

func TestPolicySessions(t *testing.T) {
	in, _ := InstanceByName("Univ-1 M.S. DS-CT")
	pol, err := Train(context.Background(), in, "sarsa", Options{Episodes: 120, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := pol.NewSession(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Suggestions()) == 0 || s.Done() {
		t.Fatal("fresh session has no suggestions")
	}
	plan := s.AutoComplete()
	if len(plan.Steps) != 10 {
		t.Fatalf("auto-completed plan = %d steps", len(plan.Steps))
	}

	// Procedural engines cannot drive sessions.
	gold, err := Train(context.Background(), in, "gold", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gold.NewSession(3); err == nil {
		t.Fatal("session on a gold policy accepted")
	}
}
