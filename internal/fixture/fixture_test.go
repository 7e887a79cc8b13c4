// These tests drive the paper's two running examples (Example 1 course
// planning, Example 2 trip planning) end-to-end through the full pipeline:
// environment, learning, recommendation and validation — pinning the
// specific sequences the paper quotes.
package fixture_test

import (
	"testing"

	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/eval"
	"github.com/rlplanner/rlplanner/internal/fixture"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/reward"
	"github.com/rlplanner/rlplanner/internal/sarsa"
	"github.com/rlplanner/rlplanner/internal/seqsim"
)

func seq(t *testing.T, c *item.Catalog, ids ...string) []int {
	t.Helper()
	out := make([]int, len(ids))
	for i, id := range ids {
		idx, ok := c.Index(id)
		if !ok {
			t.Fatalf("unknown id %q", id)
		}
		out[i] = idx
	}
	return out
}

func TestExample1PaperSequenceMatchesI2(t *testing.T) {
	// §II-B.1: m1 → m2 → m4 → m5 → m6 → m3 fully satisfies permutation I2
	// of the template: its interleaving score is the perfect-match bound 6.
	c := fixture.Courses()
	plan := seq(t, c,
		"Data Structures and Algorithms", "Data Mining", "Linear Algebra",
		"Big Data", "Machine Learning", "Data Analytics")
	types := c.AppendTypes(nil, plan)
	it := fixture.CourseTemplate()
	if got := seqsim.Sim(types, it[1]); got != 6 {
		t.Fatalf("Sim against I2 = %v, want 6", got)
	}
	if got := seqsim.MaxSim(types, it); got != 6 {
		t.Fatalf("MaxSim = %v, want 6", got)
	}
}

func TestExample2PaperSequenceMatchesI1(t *testing.T) {
	// §II-B.2: Louvre → Le Cinq → Eiffel → Rue des Martyrs → Seine fully
	// satisfies permutation I1 (primary, secondary, primary, secondary,
	// secondary).
	c := fixture.Trip()
	plan := seq(t, c,
		"Louvre Museum", "Le Cinq", "Eiffel Tower",
		"Rue des Martyrs", "The River Seine")
	types := c.AppendTypes(nil, plan)
	it := fixture.TripTemplate()
	if got := seqsim.Sim(types, it[0]); got != 5 {
		t.Fatalf("Sim against I1 = %v, want 5", got)
	}
	// And it satisfies the toy trip's hard constraints (Le Cinq's museum
	// antecedent at gap 1, theme diversity, 6-hour budget).
	vs := constraints.Check(c, plan, fixture.TripHard())
	if len(vs) != 0 {
		t.Fatalf("paper trip sequence violations: %v", vs)
	}
}

func TestExample1LearnedPlanEndToEnd(t *testing.T) {
	rw := reward.Config{
		Delta: 0.6, Beta: 0.4, Epsilon: 1,
		Weights:  reward.Weights{Primary: 0.6, Secondary: 0.4},
		Sim:      seqsim.Average,
		Template: fixture.CourseTemplate(),
	}
	env, err := mdp.NewEnv(fixture.Courses(), fixture.CourseHard(), fixture.CourseSoft(),
		rw, mdp.CountBudget{H: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sarsa.Learn(env, sarsa.Config{
		Episodes: 400, Alpha: 0.75, Gamma: 0.95, Start: sarsa.RandomStart, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// From Data Mining (secondary, no prereq), a full, valid 6-course plan
	// must emerge.
	dm, _ := env.Catalog().Index("Data Mining")
	plan, err := res.Policy.RecommendGuided(env, dm)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 6 {
		t.Fatalf("plan length = %d", len(plan))
	}
	if vs := constraints.Check(env.Catalog(), plan, fixture.CourseHard()); len(vs) != 0 {
		t.Fatalf("violations: %v (plan %v)", vs, env.Catalog().SequenceIDs(plan))
	}
}

func TestExample2LearnedItineraryEndToEnd(t *testing.T) {
	rw := reward.DefaultTripConfig(fixture.TripTemplate())
	env, err := mdp.NewEnv(fixture.Trip(), fixture.TripHard(), fixture.TripSoft(),
		rw, mdp.TimeBudget{Hours: 6, MaxItems: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sarsa.Learn(env, sarsa.Config{
		Episodes: 400, Alpha: 0.95, Gamma: 0.75, Start: sarsa.RandomStart, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	louvre, _ := env.Catalog().Index("Louvre Museum")
	plan, err := res.Policy.RecommendGuided(env, louvre)
	if err != nil {
		t.Fatal(err)
	}
	if env.Catalog().TotalCredits(plan) > 6 {
		t.Fatalf("itinerary exceeds 6 hours: %v", env.Catalog().SequenceIDs(plan))
	}
	// Theme diversity holds along the itinerary.
	for i := 1; i < len(plan); i++ {
		a, b := env.Catalog().At(plan[i-1]), env.Catalog().At(plan[i])
		if a.Category == b.Category {
			t.Fatalf("theme repeat: %s → %s", a.ID, b.ID)
		}
	}
}

func TestFixtureInternalConsistency(t *testing.T) {
	// Templates match the toy hard constraints.
	if err := fixture.CourseTemplate().Validate(3, 3); err != nil {
		t.Fatal(err)
	}
	if err := fixture.TripTemplate().Validate(2, 3); err != nil {
		t.Fatal(err)
	}
	// Ideal vectors live in the right vocabularies.
	if fixture.CourseIdeal().Len() != fixture.CourseTopics().Len() {
		t.Fatal("course ideal vector length mismatch")
	}
	if fixture.TripIdeal().Len() != fixture.TripTopics().Len() {
		t.Fatal("trip ideal vector length mismatch")
	}
	// The Louvre's topic vector matches the paper: [1,1,0,0,0,0,0,1].
	louvre, _ := fixture.Trip().ByID("Louvre Museum")
	if louvre.Topics.String() != "[1,1,0,0,0,0,0,1]" {
		t.Fatalf("Louvre vector = %s", louvre.Topics)
	}
}

func TestExample1IdealVectorMatchesPaper(t *testing.T) {
	// T_ideal = [0,1,1,0,0,0,1,0,0,1,0,0,0] (Classification, Clustering,
	// Neural Network, Linear System).
	want := "[0,1,1,0,0,0,1,0,0,1,0,0,0]"
	if got := fixture.CourseIdeal().String(); got != want {
		t.Fatalf("T_ideal = %s, want %s", got, want)
	}
}

func TestGoldBeatsBaselinesOnToyInstances(t *testing.T) {
	// Sanity: evaluating the paper's own quoted sequences through eval
	// yields the expected relative ordering on the toy data.
	c := fixture.Courses()
	good := seq(t, c,
		"Data Mining", "Data Structures and Algorithms", "Linear Algebra",
		"Big Data", "Data Analytics", "Machine Learning")
	bad := seq(t, c,
		"Big Data", "Data Mining", "Linear Algebra",
		"Data Structures and Algorithms", "Data Analytics", "Machine Learning")
	hard := fixture.CourseHard()
	if !constraints.Satisfies(c, good, hard) {
		t.Fatal("good sequence should satisfy constraints")
	}
	if constraints.Satisfies(c, bad, hard) {
		t.Fatal("bad sequence (Big Data first) should violate its antecedent")
	}
	_ = eval.Detail{}
}
