package transfer_test

import (
	"context"
	"testing"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/eval"
	"github.com/rlplanner/rlplanner/internal/sarsa"
	"github.com/rlplanner/rlplanner/internal/transfer"
)

// learn trains SARSA on inst and returns the learned action values.
func learn(t *testing.T, inst *dataset.Instance, opts core.Options) *sarsa.Policy {
	t.Helper()
	p, err := engine.Train(context.Background(), "sarsa", inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p.(engine.ValuePolicy).Values()
}

// planOn walks pol with the guided walk from inst's default start, in
// inst's environment under opts.
func planOn(t *testing.T, inst *dataset.Instance, opts core.Options, pol *sarsa.Policy) []int {
	t.Helper()
	env, err := core.BuildEnv(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pol.RecommendGuided(env, inst.StartIndex())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestMapCourseProgramsSharesIDs(t *testing.T) {
	cs, dsct := univ.Univ1CS(), univ.Univ1DSCT()
	src := learn(t, cs, core.Options{Episodes: 150, Seed: 1})
	pol, m, err := transfer.Map(src, cs.Catalog, dsct.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Q.Size() != dsct.Catalog.Len() {
		t.Fatalf("transferred Q size = %d", pol.Q.Size())
	}
	// The two Univ-1 programs share many CS 6xx courses, so the bulk must
	// match by id.
	if m.ByID < 15 {
		t.Fatalf("only %d id matches between CS and DS-CT", m.ByID)
	}
	if m.Unmatched > 5 {
		t.Fatalf("%d unmatched items", m.Unmatched)
	}
}

func TestTransferredPolicyPlansDSCT(t *testing.T) {
	// §IV-D course study: learn on M.S. CS, recommend for M.S. DS-CT.
	cs, dsct := univ.Univ1CS(), univ.Univ1DSCT()
	src := learn(t, cs, core.Options{Episodes: 300, Seed: 2})
	pol, _, err := transfer.Map(src, cs.Catalog, dsct.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	plan := planOn(t, dsct, core.Options{Seed: 3}, pol)
	if len(plan) != 10 {
		t.Fatalf("transferred plan length = %d", len(plan))
	}
	if eval.Score(dsct, plan) <= 0 {
		d := eval.Evaluate(dsct, plan)
		t.Fatalf("transferred plan scored 0: %v / %v",
			dsct.Catalog.SequenceIDs(plan), d.Violations)
	}
}

func TestMapTripCitiesUsesThemes(t *testing.T) {
	// NYC↔Paris share no POI ids; the mapping must fall back to theme
	// similarity.
	nyc, paris := trip.NYC().Instance, trip.Paris().Instance
	src := learn(t, nyc, core.Options{Episodes: 100, Seed: 4})
	pol, m, err := transfer.Map(src, nyc.Catalog, paris.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if m.ByID != 0 {
		t.Fatalf("unexpected id matches between cities: %d", m.ByID)
	}
	if m.ByTopic < paris.Catalog.Len()/2 {
		t.Fatalf("only %d theme matches of %d POIs", m.ByTopic, paris.Catalog.Len())
	}
	plan := planOn(t, paris, core.Options{Seed: 5}, pol)
	if len(plan) < 2 {
		t.Fatalf("transferred trip plan too short: %v", plan)
	}
}

func TestMapValidation(t *testing.T) {
	cs, dsct := univ.Univ1CS(), univ.Univ1DSCT()
	if _, _, err := transfer.Map(nil, cs.Catalog, dsct.Catalog); err == nil {
		t.Fatal("nil policy accepted")
	}
	src := learn(t, cs, core.Options{Episodes: 20, Seed: 6})
	// Wrong source catalog size.
	if _, _, err := transfer.Map(src, dsct.Catalog, cs.Catalog); err == nil {
		t.Fatal("mismatched source catalog accepted")
	}
	var nilQ sarsa.Policy
	if _, _, err := transfer.Map(&nilQ, cs.Catalog, dsct.Catalog); err == nil {
		t.Fatal("nil Q accepted")
	}
}

func TestMappedQValuesComeFromSource(t *testing.T) {
	cs, dsct := univ.Univ1CS(), univ.Univ1DSCT()
	src := learn(t, cs, core.Options{Episodes: 150, Seed: 7})
	pol, m, err := transfer.Map(src, cs.Catalog, dsct.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check: for id-matched pairs, the transferred Q equals the
	// source Q.
	s, _ := dsct.Catalog.Index("CS 675")
	e, _ := dsct.Catalog.Index("CS 652")
	ss, se := m.DstToSrc[s], m.DstToSrc[e]
	if ss < 0 || se < 0 {
		t.Fatal("expected id matches for CS 675 / CS 652")
	}
	if pol.Q.Get(s, e) != src.Q.Get(ss, se) {
		t.Fatal("transferred Q value differs from source")
	}
}

func TestMatchDistance(t *testing.T) {
	cs, dsct := univ.Univ1CS(), univ.Univ1DSCT()
	// Identical catalogs: every item id-matches, distance 0.
	self := transfer.Match(cs.Catalog, cs.Catalog)
	if self.ByID != cs.Catalog.Len() || self.Distance() != 0 {
		t.Fatalf("self-match: ByID=%d distance=%v, want %d and 0",
			self.ByID, self.Distance(), cs.Catalog.Len())
	}
	// Sibling programs: partial overlap, distance strictly inside (0,1).
	m := transfer.Match(cs.Catalog, dsct.Catalog)
	if d := m.Distance(); d <= 0 || d >= 1 {
		t.Fatalf("sibling distance = %v, want in (0,1)", d)
	}
	if m.ByID+m.ByTopic+m.Unmatched != dsct.Catalog.Len() {
		t.Fatalf("match counts %d+%d+%d don't cover %d items",
			m.ByID, m.ByTopic, m.Unmatched, dsct.Catalog.Len())
	}
}

func TestWarmBudget(t *testing.T) {
	cases := []struct {
		cold int
		d    float64
		want int
	}{
		{500, 0, 50},     // floor: MinWarmFraction of the cold budget
		{500, 0.125, 63}, // k=5 of 40 items → ceil(500·0.125)
		{500, 0.5, 250},  // half-changed catalog → half budget
		{500, 1, 500},    // unrelated catalog → full cold budget
		{500, 2, 500},    // distance clamps at the cold budget
		{3, 0.01, 1},     // tiny budgets stay >= 1
		{0, 0.5, 1},      // degenerate cold budget
	}
	for _, c := range cases {
		if got := transfer.WarmBudget(c.cold, c.d); got != c.want {
			t.Errorf("WarmBudget(%d, %v) = %d, want %d", c.cold, c.d, got, c.want)
		}
	}
}
