package rlplanner

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestBuiltInInstances(t *testing.T) {
	if got := len(CourseInstances()); got != 4 {
		t.Fatalf("course instances = %d, want 4", got)
	}
	if got := len(TripInstances()); got != 2 {
		t.Fatalf("trip instances = %d, want 2", got)
	}
	if got := len(Instances()); got != 6 {
		t.Fatalf("instances = %d, want 6", got)
	}
	in, err := InstanceByName("Univ-1 M.S. DS-CT")
	if err != nil {
		t.Fatal(err)
	}
	if in.NumItems() != 31 || in.IsTrip() || in.GoldScore() != 10 {
		t.Fatalf("DS-CT shape: items=%d trip=%v gold=%v",
			in.NumItems(), in.IsTrip(), in.GoldScore())
	}
	if len(in.Topics()) != 60 {
		t.Fatalf("DS-CT topics = %d", len(in.Topics()))
	}
	if _, err := InstanceByName("Hogwarts"); err == nil {
		t.Fatal("unknown instance accepted")
	}
}

func TestItemsExposeCatalog(t *testing.T) {
	in, _ := InstanceByName("Univ-1 M.S. DS-CT")
	items := in.Items()
	if len(items) != 31 {
		t.Fatalf("items = %d", len(items))
	}
	var ml *Item
	for i := range items {
		if items[i].ID == "CS 675" {
			ml = &items[i]
		}
	}
	if ml == nil {
		t.Fatal("CS 675 missing")
	}
	if !ml.Primary || ml.Name != "Machine Learning" || ml.Credits != 3 {
		t.Fatalf("CS 675 = %+v", ml)
	}
	if ml.Prerequisite != "[]" {
		t.Fatalf("CS 675 prerequisite = %s", ml.Prerequisite)
	}
	if len(ml.Topics) == 0 {
		t.Fatal("CS 675 has no topics")
	}
}

func TestEndToEndCoursePlanning(t *testing.T) {
	in, _ := InstanceByName("Univ-1 M.S. DS-CT")
	p, err := Train(context.Background(), in, "sarsa", Options{Episodes: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.LearningCurve()) != 200 {
		t.Fatalf("learning curve = %d points", len(p.LearningCurve()))
	}
	plan, err := p.Recommend("")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 10 {
		t.Fatalf("plan = %d steps, want 10", len(plan.Steps))
	}
	if plan.TotalCredits != 30 {
		t.Fatalf("credits = %v, want 30", plan.TotalCredits)
	}
	if !plan.SatisfiesConstraints {
		t.Fatalf("plan violates constraints: %v", plan.Violations)
	}
	if plan.Score <= 0 || plan.Score > in.GoldScore() {
		t.Fatalf("score = %v", plan.Score)
	}
	if plan.IDs()[0] != "CS 675" {
		t.Fatalf("plan starts with %s", plan.IDs()[0])
	}
}

func TestEndToEndTripPlanning(t *testing.T) {
	in, _ := InstanceByName("Paris")
	p, err := Train(context.Background(), in, "sarsa", Options{Episodes: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Recommend("")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) == 0 {
		t.Fatal("empty itinerary")
	}
	if plan.TotalCredits > 6 {
		t.Fatalf("itinerary time %v exceeds t = 6", plan.TotalCredits)
	}
	if !plan.SatisfiesConstraints {
		t.Fatalf("itinerary violations: %v", plan.Violations)
	}
}

func TestBaselinesAndGold(t *testing.T) {
	in, _ := InstanceByName("Univ-1 M.S. DS-CT")
	g, err := GoldStandard(in)
	if err != nil {
		t.Fatal(err)
	}
	if g.Score != 10 {
		t.Fatalf("gold score = %v", g.Score)
	}
	e, err := EDABaseline(in, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Steps) != 10 {
		t.Fatalf("EDA steps = %d", len(e.Steps))
	}
	o, err := OmegaBaseline(in, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Steps) == 0 {
		t.Fatal("OMEGA produced nothing")
	}
}

func TestPolicySaveLoad(t *testing.T) {
	in, _ := InstanceByName("Univ-1 M.S. DS-CT")
	p, err := Train(context.Background(), in, "sarsa", Options{Episodes: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Recommend("")
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}

	fresh, err := LoadPolicyArtifact(&buf, in, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Recommend("")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got.IDs(), "|") != strings.Join(want.IDs(), "|") {
		t.Fatalf("loaded policy plans differently:\n%v\n%v", got.IDs(), want.IDs())
	}
}

func TestTransferAcrossCities(t *testing.T) {
	nyc, _ := InstanceByName("NYC")
	paris, _ := InstanceByName("Paris")
	p, err := Train(context.Background(), nyc, "sarsa", Options{Episodes: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	moved, err := p.Transfer(paris, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := moved.Recommend("")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) == 0 {
		t.Fatal("transferred policy produced nothing")
	}
	if moved.LearningCurve() != nil || moved.EpisodesTrained() != 0 {
		t.Fatal("a transferred policy reports training it did not run")
	}

	if _, err := p.Transfer(nil, Options{}); err == nil {
		t.Fatal("transfer to a nil instance accepted")
	}
	gold, err := Train(context.Background(), nyc, "gold", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gold.Transfer(paris, Options{}); err == nil {
		t.Fatal("transfer of a procedural policy accepted")
	}
}

func TestRatePlanAPI(t *testing.T) {
	in, _ := InstanceByName("Univ-1 M.S. DS-CT")
	g, _ := GoldStandard(in)
	r, err := RatePlan(in, g, 25, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{r.Overall, r.Ordering, r.Coverage, r.Interleaving} {
		if v < 1 || v > 5 {
			t.Fatalf("rating %v out of scale", v)
		}
	}
}

func TestMinimumSimilarityOption(t *testing.T) {
	in, _ := InstanceByName("Univ-1 M.S. DS-CT")
	p, err := Train(context.Background(), in, "sarsa", Options{Episodes: 100, Seed: 8, MinimumSimilarity: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Recommend(""); err != nil {
		t.Fatal(err)
	}
}

func TestNilAndBadInputs(t *testing.T) {
	ctx := context.Background()
	if _, err := Train(ctx, nil, "sarsa", Options{}); err == nil {
		t.Fatal("nil instance accepted")
	}
	in, _ := InstanceByName("Univ-1 M.S. DS-CT")
	if _, err := Train(ctx, in, "sarsa", Options{Start: "GHOST 1"}); err == nil {
		t.Fatal("unknown start accepted")
	}
	if _, err := Train(ctx, in, "oracle", Options{}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestExplainPlanAPI(t *testing.T) {
	in, _ := InstanceByName("Univ-1 M.S. DS-CT")
	g, _ := GoldStandard(in)
	lines, err := ExplainPlan(in, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(g.Steps) {
		t.Fatalf("explanation lines = %d", len(lines))
	}
	bad := &Plan{Steps: []PlanStep{{ID: "GHOST"}}}
	if _, err := ExplainPlan(in, bad); err == nil {
		t.Fatal("unknown item accepted")
	}
}

func TestCourseDescriptionsExposed(t *testing.T) {
	in, _ := InstanceByName("Univ-1 M.S. DS-CT")
	for _, m := range in.Items() {
		if m.ID == "CS 675" {
			if !strings.Contains(m.Description, "Supervised") {
				t.Fatalf("CS 675 description = %q", m.Description)
			}
			return
		}
	}
	t.Fatal("CS 675 missing")
}
