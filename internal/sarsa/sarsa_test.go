package sarsa_test

import (
	"math"
	"strings"
	"testing"

	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/fixture"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/reward"
	"github.com/rlplanner/rlplanner/internal/sarsa"
	"github.com/rlplanner/rlplanner/internal/seqsim"
)

func courseEnv(t *testing.T) *mdp.Env {
	t.Helper()
	rw := reward.Config{
		Delta:    0.6,
		Beta:     0.4,
		Epsilon:  0.0025,
		Weights:  reward.Weights{Primary: 0.6, Secondary: 0.4},
		Sim:      seqsim.Average,
		Template: fixture.CourseTemplate(),
	}
	env, err := mdp.NewEnv(fixture.Courses(), fixture.CourseHard(), fixture.CourseSoft(),
		rw, mdp.CountBudget{H: 6})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func defaultConfig() sarsa.Config {
	return sarsa.Config{
		Episodes: 200,
		Alpha:    0.75,
		Gamma:    0.95,
		Start:    0,
		Seed:     1,
	}
}

// TestConfigValidate: every out-of-range rate is refused with an error
// naming the field. NaN compares false with every bound, so the rates
// must refuse it (and ±Inf) too.
func TestConfigValidate(t *testing.T) {
	good := defaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field  string
		mutate func(*sarsa.Config)
	}{
		{"episodes", func(c *sarsa.Config) { c.Episodes = 0 }},
		{"α", func(c *sarsa.Config) { c.Alpha = 0 }},
		{"α", func(c *sarsa.Config) { c.Alpha = 1.5 }},
		{"α", func(c *sarsa.Config) { c.Alpha = nan }},
		{"α", func(c *sarsa.Config) { c.Alpha = inf }},
		{"γ", func(c *sarsa.Config) { c.Gamma = -0.1 }},
		{"γ", func(c *sarsa.Config) { c.Gamma = 1.1 }},
		{"γ", func(c *sarsa.Config) { c.Gamma = nan }},
		{"γ", func(c *sarsa.Config) { c.Gamma = -inf }},
		{"explore", func(c *sarsa.Config) { c.Explore = 2 }},
		{"explore", func(c *sarsa.Config) { c.Explore = nan }},
		{"explore", func(c *sarsa.Config) { c.Explore = inf }},
	}
	for i, tc := range cases {
		c := defaultConfig()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("case %d: invalid %s accepted", i, tc.field)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("case %d: error %q does not name %s", i, err, tc.field)
		}
	}
}

func TestLearnProducesPolicy(t *testing.T) {
	env := courseEnv(t)
	res, err := sarsa.Learn(env, defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy.Q.Size() != env.NumItems() {
		t.Fatalf("Q size = %d, want %d", res.Policy.Q.Size(), env.NumItems())
	}
	if len(res.Policy.IDs) != env.NumItems() {
		t.Fatalf("IDs = %d entries", len(res.Policy.IDs))
	}
	if len(res.EpisodeReturns) != 200 {
		t.Fatalf("returns = %d entries", len(res.EpisodeReturns))
	}
	if res.Policy.Q.MaxAbs() == 0 {
		t.Fatal("Q table untouched by learning")
	}
}

func TestLearnDeterministicForSeed(t *testing.T) {
	env := courseEnv(t)
	cfg := defaultConfig()
	a, err := sarsa.Learn(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sarsa.Learn(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < env.NumItems(); s++ {
		for e := 0; e < env.NumItems(); e++ {
			if a.Policy.Q.Get(s, e) != b.Policy.Q.Get(s, e) {
				t.Fatalf("Q(%d,%d) differs across identical runs", s, e)
			}
		}
	}

	cfg.Seed = 2
	c, err := sarsa.Learn(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for s := 0; s < env.NumItems() && same; s++ {
		for e := 0; e < env.NumItems(); e++ {
			if a.Policy.Q.Get(s, e) != c.Policy.Q.Get(s, e) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical Q tables")
	}
}

func TestLearnValidatesStart(t *testing.T) {
	env := courseEnv(t)
	cfg := defaultConfig()
	cfg.Start = 99
	if _, err := sarsa.Learn(env, cfg); err == nil {
		t.Fatal("out-of-range start accepted")
	}
	cfg.Start = sarsa.RandomStart
	if _, err := sarsa.Learn(env, cfg); err != nil {
		t.Fatalf("RandomStart rejected: %v", err)
	}
}

func TestRecommendFillsBudget(t *testing.T) {
	env := courseEnv(t)
	res, err := sarsa.Learn(env, defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := res.Policy.Recommend(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 6 {
		t.Fatalf("plan length = %d, want 6", len(plan))
	}
	if plan[0] != 0 {
		t.Fatalf("plan should start at item 0, got %d", plan[0])
	}
	seen := map[int]bool{}
	for _, i := range plan {
		if seen[i] {
			t.Fatalf("duplicate item %d in plan %v", i, plan)
		}
		seen[i] = true
	}
}

func TestRecommendDeterministic(t *testing.T) {
	env := courseEnv(t)
	res, _ := sarsa.Learn(env, defaultConfig())
	a, _ := res.Policy.Recommend(env, 1)
	b, _ := res.Policy.Recommend(env, 1)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recommendations differ at %d: %v vs %v", i, a, b)
		}
	}
}

func TestRecommendSizeMismatch(t *testing.T) {
	env := courseEnv(t)
	res, _ := sarsa.Learn(env, defaultConfig())

	// A policy learned over a different catalog size must be rejected.
	tripRw := reward.DefaultTripConfig(fixture.TripTemplate())
	tripEnv, err := mdp.NewEnv(fixture.Trip(), fixture.TripHard(), fixture.TripSoft(),
		tripRw, mdp.TimeBudget{Hours: 6, MaxItems: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Policy.Recommend(tripEnv, 0); err == nil {
		t.Fatal("size mismatch accepted")
	}
	nilQ := &sarsa.Policy{}
	if _, err := nilQ.Recommend(env, 0); err == nil {
		t.Fatal("nil Q accepted")
	}
}

func TestLearnedPlanSatisfiesHardConstraints(t *testing.T) {
	// The core claim (Theorem 1 made executable): with the gated reward,
	// a sufficiently trained policy recommends plans satisfying P_hard.
	env := courseEnv(t)
	cfg := defaultConfig()
	cfg.Episodes = 500
	res, err := sarsa.Learn(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Start from Data Mining (a secondary with no prereq): index 1.
	plan, err := res.Policy.RecommendGuided(env, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 6 {
		t.Fatalf("plan %v has length %d", plan, len(plan))
	}
	vs := constraints.Check(env.Catalog(), plan, env.Hard())
	// The toy catalog is tight (6 items, 2 with prereqs and gap 3), so a
	// perfect plan must sequence prereqs early; the learner should find one.
	if len(vs) != 0 {
		t.Logf("plan: %v", env.Catalog().SequenceIDs(plan))
		for _, v := range vs {
			t.Logf("violation: %s", v)
		}
		t.Fatal("learned plan violates hard constraints")
	}
}

func TestQGreedySelectionLearns(t *testing.T) {
	env := courseEnv(t)
	cfg := defaultConfig()
	cfg.Selection = sarsa.QGreedy
	res, err := sarsa.Learn(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy.Q.MaxAbs() == 0 {
		t.Fatal("Q-greedy learning left table empty")
	}
}

func TestDisableExploreIsDeterministicPerEpisode(t *testing.T) {
	env := courseEnv(t)
	cfg := defaultConfig()
	cfg.DisableExplore = true
	cfg.Episodes = 10
	res, err := sarsa.Learn(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Without exploration and with a fixed start, every episode should
	// collect a similar return once ties settle; the learning curve must
	// still be recorded.
	if len(res.EpisodeReturns) != 10 {
		t.Fatalf("returns = %d", len(res.EpisodeReturns))
	}
}

func TestSelectionString(t *testing.T) {
	if sarsa.RewardGreedy.String() != "reward-greedy" || sarsa.QGreedy.String() != "q-greedy" {
		t.Fatal("Selection.String mismatch")
	}
}

func TestTripLearningEndToEnd(t *testing.T) {
	rw := reward.DefaultTripConfig(fixture.TripTemplate())
	env, err := mdp.NewEnv(fixture.Trip(), fixture.TripHard(), fixture.TripSoft(),
		rw, mdp.TimeBudget{Hours: 6, MaxItems: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sarsa.Config{Episodes: 300, Alpha: 0.95, Gamma: 0.75, Start: sarsa.RandomStart, Seed: 3}
	res, err := sarsa.Learn(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	louvre, _ := env.Catalog().Index("Louvre Museum")
	plan, err := res.Policy.Recommend(env, louvre)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) < 2 {
		t.Fatalf("trip plan too short: %v", plan)
	}
	if env.Catalog().TotalCredits(plan) > 6 {
		t.Fatalf("trip exceeds time budget: %v", env.Catalog().TotalCredits(plan))
	}
	// No two consecutive POIs of the same theme.
	for i := 1; i < len(plan); i++ {
		a, b := env.Catalog().At(plan[i-1]), env.Catalog().At(plan[i])
		if a.Category == b.Category && a.Category != item.NoCategory {
			t.Fatalf("theme repeat in %v", env.Catalog().SequenceIDs(plan))
		}
	}
}

func TestQLearningAlgorithm(t *testing.T) {
	env := courseEnv(t)
	cfg := defaultConfig()
	cfg.Algorithm = sarsa.QLearning
	res, err := sarsa.Learn(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy.Q.MaxAbs() == 0 {
		t.Fatal("Q-learning left the table empty")
	}
	// SARSA and Q-learning must genuinely differ on the same seed.
	sres, err := sarsa.Learn(env, defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for s := 0; s < env.NumItems() && same; s++ {
		for e := 0; e < env.NumItems(); e++ {
			if res.Policy.Q.Get(s, e) != sres.Policy.Q.Get(s, e) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("SARSA and Q-learning produced identical tables")
	}
}

func TestAlgorithmString(t *testing.T) {
	if sarsa.SARSA.String() != "sarsa" || sarsa.QLearning.String() != "q-learning" {
		t.Fatal("Algorithm.String mismatch")
	}
}

func TestRankActions(t *testing.T) {
	env := courseEnv(t)
	res, err := sarsa.Learn(env, defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := env.Start(0)
	if err != nil {
		t.Fatal(err)
	}
	ranked := res.Policy.RankActions(env, ep, 4, nil)
	if len(ranked) == 0 || len(ranked) > 4 {
		t.Fatalf("ranked = %d entries", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Tier > ranked[i].Tier {
			t.Fatalf("tiers out of order: %+v", ranked)
		}
		if ranked[i-1].Tier == ranked[i].Tier && ranked[i-1].Reward < ranked[i].Reward {
			t.Fatalf("rewards out of order within tier: %+v", ranked)
		}
	}
	// Excluding the top choice removes it.
	top := ranked[0].Item
	again := res.Policy.RankActions(env, ep, 4, func(a int) bool { return a == top })
	for _, r := range again {
		if r.Item == top {
			t.Fatal("excluded item still ranked")
		}
	}
	// k ≤ 0 and finished episodes return nothing.
	if got := res.Policy.RankActions(env, ep, 0, nil); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

func TestNextGuidedDriveToCompletion(t *testing.T) {
	env := courseEnv(t)
	res, err := sarsa.Learn(env, defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ep, _ := env.Start(1)
	steps := 0
	for !ep.Done() {
		e, ok := res.Policy.NextGuided(env, ep, nil)
		if !ok {
			break
		}
		ep.Step(e)
		steps++
		if steps > env.NumItems() {
			t.Fatal("NextGuided looped past catalog size")
		}
	}
	if ep.Len() != 6 {
		t.Fatalf("drive ended at %d items", ep.Len())
	}
	if e, ok := res.Policy.NextGuided(env, ep, nil); ok {
		t.Fatalf("NextGuided returned %d on a done episode", e)
	}
}

func TestGuidedTripPacingBudgets(t *testing.T) {
	// The guided walk on a length-constrained trip must pace the time and
	// distance budgets (gap-aware completion feasibility) — the toy trip
	// has a 2+3 split, a 6-hour ceiling and the theme-gap rule.
	rw := reward.DefaultTripConfig(fixture.TripTemplate())
	env, err := mdp.NewEnv(fixture.Trip(), fixture.TripHard(), fixture.TripSoft(),
		rw, mdp.TimeBudget{Hours: 6, MaxItems: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sarsa.Learn(env, sarsa.Config{
		Episodes: 300, Alpha: 0.95, Gamma: 0.75, Start: sarsa.RandomStart, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	louvre, _ := env.Catalog().Index("Louvre Museum")
	plan, err := res.Policy.RecommendGuided(env, louvre)
	if err != nil {
		t.Fatal(err)
	}
	// The pacing keeps the itinerary at full length within the time
	// budget; on this deliberately tight toy instance the remaining soft
	// preferences are best-effort.
	if len(plan) != 5 {
		t.Fatalf("paced trip plan = %d POIs, want the full 5: %v",
			len(plan), env.Catalog().SequenceIDs(plan))
	}
	if got := env.Catalog().TotalCredits(plan); got > 6 {
		t.Fatalf("plan spends %v hours", got)
	}
	for _, v := range constraints.Check(env.Catalog(), plan, fixture.TripHard()) {
		t.Logf("best-effort residual violation: %v", v)
		if v.Kind == constraints.ViolationCredits || v.Kind == constraints.ViolationLength {
			t.Fatalf("pacing failed its own guarantee: %v", v)
		}
	}
}

func TestGuidedTripPacingWithDistance(t *testing.T) {
	// With a distance threshold the per-slot distance share also gates
	// candidates.
	hard := fixture.TripHard()
	hard.MaxDistanceKm = 6
	rw := reward.DefaultTripConfig(fixture.TripTemplate())
	env, err := mdp.NewEnv(fixture.Trip(), hard, fixture.TripSoft(),
		rw, mdp.TimeBudget{Hours: 6, MaxItems: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sarsa.Learn(env, sarsa.Config{
		Episodes: 300, Alpha: 0.95, Gamma: 0.75, Start: sarsa.RandomStart, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	louvre, _ := env.Catalog().Index("Louvre Museum")
	plan, err := res.Policy.RecommendGuided(env, louvre)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) < 3 {
		t.Fatalf("distance-paced plan too short: %v", env.Catalog().SequenceIDs(plan))
	}
	for _, v := range constraints.Check(env.Catalog(), plan, hard) {
		if v.Kind == constraints.ViolationDistance {
			t.Fatalf("distance violated despite pacing: %v", v)
		}
	}
}
