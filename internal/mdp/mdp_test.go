package mdp_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/rlplanner/rlplanner/internal/bitset"
	"github.com/rlplanner/rlplanner/internal/fixture"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/prereq"
	"github.com/rlplanner/rlplanner/internal/reward"
	"github.com/rlplanner/rlplanner/internal/seqsim"
)

// courseEnv builds the Table II toy environment with ε = 1 and the Example
// 1 ideal vector, as used by the paper's worked examples.
func courseEnv(t *testing.T) *mdp.Env {
	t.Helper()
	c := fixture.Courses()
	rw := reward.Config{
		Delta:    0.6,
		Beta:     0.4,
		Epsilon:  1,
		Weights:  reward.Weights{Primary: 0.6, Secondary: 0.4},
		Sim:      seqsim.Average,
		Template: fixture.CourseTemplate(),
	}
	env, err := mdp.NewEnv(c, fixture.CourseHard(), fixture.CourseSoft(), rw, mdp.CountBudget{H: 6})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

func idx(t *testing.T, c *item.Catalog, id string) int {
	t.Helper()
	i, ok := c.Index(id)
	if !ok {
		t.Fatalf("unknown id %q", id)
	}
	return i
}

func TestNewEnvValidation(t *testing.T) {
	c := fixture.Courses()
	rw := reward.DefaultCourseConfig(fixture.CourseTemplate())
	if _, err := mdp.NewEnv(nil, fixture.CourseHard(), fixture.CourseSoft(), rw, mdp.CountBudget{H: 6}); err == nil {
		t.Fatal("nil catalog accepted")
	}
	if _, err := mdp.NewEnv(c, fixture.CourseHard(), fixture.CourseSoft(), rw, nil); err == nil {
		t.Fatal("nil budget accepted")
	}
	bad := rw
	bad.Delta = 0.5
	if _, err := mdp.NewEnv(c, fixture.CourseHard(), fixture.CourseSoft(), bad, mdp.CountBudget{H: 6}); err == nil {
		t.Fatal("invalid reward config accepted")
	}
	soft := fixture.CourseSoft()
	soft.Ideal = fixture.TripIdeal() // wrong length
	if _, err := mdp.NewEnv(c, fixture.CourseHard(), soft, rw, mdp.CountBudget{H: 6}); err == nil {
		t.Fatal("mismatched ideal vector accepted")
	}
	soft = fixture.CourseSoft()
	soft.Template = fixture.TripTemplate() // 2/3 split, hard wants 3/3
	if _, err := mdp.NewEnv(c, fixture.CourseHard(), soft, rw, mdp.CountBudget{H: 6}); err == nil {
		t.Fatal("mismatched template accepted")
	}
	// Episodes keep one similarity slot per item type.
	items := make([]item.Item, c.Len())
	for i := range items {
		items[i] = c.At(i)
	}
	items[0].Type = item.Secondary + 1
	third, err := item.NewCatalog(c.Vocabulary(), items)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mdp.NewEnv(third, fixture.CourseHard(), fixture.CourseSoft(), rw, mdp.CountBudget{H: 6}); err == nil {
		t.Fatal("third item type accepted")
	}
}

func TestPaperRewardExampleM2ToM4VsM5(t *testing.T) {
	// §III-B.1: from a state where m2 (Data Mining) was taken, adding m4
	// (Linear Algebra) has r1 = 1 but adding m5 (Big Data) has r1 = 0.
	env := courseEnv(t)
	c := env.Catalog()
	ep, err := env.Start(idx(t, c, "Data Mining"))
	if err != nil {
		t.Fatal(err)
	}

	rw := env.RewardConfig()
	trM4 := ep.Transition(idx(t, c, "Linear Algebra"))
	if trM4.CoverageGain < 1 {
		t.Fatalf("m4 coverage gain = %d, want ≥ 1", trM4.CoverageGain)
	}
	if rw.R1(trM4.CoverageGain, trM4.IdealSize) != 1 {
		t.Fatal("r1(m4) should be 1")
	}

	trM5 := ep.Transition(idx(t, c, "Big Data"))
	if rw.R1(trM5.CoverageGain, trM5.IdealSize) != 0 {
		t.Fatalf("r1(m5) should be 0, coverage gain = %d", trM5.CoverageGain)
	}
	// m5's reward is zero regardless of its prerequisite state.
	if r := ep.Reward(idx(t, c, "Big Data")); r != 0 {
		t.Fatalf("reward(m5) = %v, want 0", r)
	}
}

func TestPrereqGapInTransitions(t *testing.T) {
	env := courseEnv(t)
	c := env.Catalog()
	ep, _ := env.Start(idx(t, c, "Data Mining"))
	ep.Step(idx(t, c, "Data Structures and Algorithms"))
	ep.Step(idx(t, c, "Linear Algebra"))

	// Big Data at position 3: Data Mining at position 0, distance 3 ≥ gap 3.
	tr := ep.Transition(idx(t, c, "Big Data"))
	if !tr.PrereqOK {
		t.Fatal("Big Data prereq should be satisfied at distance 3")
	}

	// Machine Learning at position 3: Linear Algebra at position 2,
	// distance 1 < 3 → unsatisfied.
	tr = ep.Transition(idx(t, c, "Machine Learning"))
	if tr.PrereqOK {
		t.Fatal("Machine Learning prereq should fail the gap")
	}
	if r := ep.Reward(idx(t, c, "Machine Learning")); r != 0 {
		t.Fatalf("reward = %v, want 0 when r2 = 0", r)
	}
}

func TestEpisodeBookkeeping(t *testing.T) {
	env := courseEnv(t)
	c := env.Catalog()
	ep, _ := env.Start(idx(t, c, "Data Mining"))
	if ep.Len() != 1 || ep.Credits() != 3 {
		t.Fatalf("after start: len=%d credits=%v", ep.Len(), ep.Credits())
	}
	ep.Step(idx(t, c, "Linear Algebra"))
	if ep.Len() != 2 || ep.Credits() != 6 {
		t.Fatalf("after step: len=%d credits=%v", ep.Len(), ep.Credits())
	}
	types := ep.Types()
	if types[0] != item.Secondary || types[1] != item.Secondary {
		t.Fatalf("types = %v", types)
	}
	cov := ep.Coverage()
	// m2 topics {1,2} ∪ m4 topics {8,9}.
	if cov.Count() != 4 {
		t.Fatalf("coverage count = %d, want 4", cov.Count())
	}
	if ep.Last() != idx(t, c, "Linear Algebra") {
		t.Fatal("Last mismatch")
	}
	seq := ep.Sequence()
	seq[0] = 99
	if ep.Sequence()[0] == 99 {
		t.Fatal("Sequence leaked internal slice")
	}
}

func TestCountBudgetTermination(t *testing.T) {
	env := courseEnv(t)
	c := env.Catalog()
	ep, _ := env.Start(0)
	steps := []string{"Data Mining", "Data Analytics", "Linear Algebra", "Big Data", "Machine Learning"}
	for _, id := range steps {
		if ep.Done() {
			t.Fatalf("Done before H items (len=%d)", ep.Len())
		}
		ep.Step(idx(t, c, id))
	}
	if !ep.Done() {
		t.Fatal("not Done after H = 6 items")
	}
	if got := ep.Candidates(); len(got) != 0 {
		t.Fatalf("candidates after Done = %v", got)
	}
}

func TestStepPanics(t *testing.T) {
	env := courseEnv(t)
	ep, _ := env.Start(0)
	for _, idx := range []int{-1, 99, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Step(%d) did not panic", idx)
				}
			}()
			ep.Step(idx)
		}()
	}
}

func TestStartValidation(t *testing.T) {
	env := courseEnv(t)
	if _, err := env.Start(-1); err == nil {
		t.Fatal("negative start accepted")
	}
	if _, err := env.Start(env.NumItems()); err == nil {
		t.Fatal("out-of-range start accepted")
	}
}

func tripEnv(t *testing.T) *mdp.Env {
	t.Helper()
	c := fixture.Trip()
	rw := reward.DefaultTripConfig(fixture.TripTemplate())
	env, err := mdp.NewEnv(c, fixture.TripHard(), fixture.TripSoft(), rw,
		mdp.TimeBudget{Hours: 6, MaxItems: 5})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

func TestTimeBudget(t *testing.T) {
	b := mdp.TimeBudget{Hours: 6, MaxItems: 5}
	if b.Done(5.9, 3) {
		t.Fatal("Done before budget")
	}
	if !b.Done(6, 3) {
		t.Fatal("not Done at budget")
	}
	if !b.Done(2, 5) {
		t.Fatal("not Done at item cap")
	}
	if b.Allows(5, 3, 2) {
		t.Fatal("Allows should reject overflow (5+2 > 6)")
	}
	if !b.Allows(5, 3, 1) {
		t.Fatal("Allows should accept exact fit")
	}
}

func TestTripThemeGapTransition(t *testing.T) {
	env := tripEnv(t)
	c := env.Catalog()
	ep, _ := env.Start(idx(t, c, "Louvre Museum"))
	// Orsay is also a museum (same category) → ThemeOK = false, reward 0.
	tr := ep.Transition(idx(t, c, "Musée d'Orsay"))
	if tr.ThemeOK {
		t.Fatal("consecutive museums should violate the theme gap")
	}
	if r := ep.Reward(idx(t, c, "Musée d'Orsay")); r != 0 {
		t.Fatalf("reward = %v, want 0", r)
	}
	// Seine (river) is fine.
	tr = ep.Transition(idx(t, c, "The River Seine"))
	if !tr.ThemeOK {
		t.Fatal("river after museum should satisfy the theme gap")
	}
}

func TestTripTimeBudgetStopsEpisode(t *testing.T) {
	env := tripEnv(t)
	c := env.Catalog()
	ep, _ := env.Start(idx(t, c, "Louvre Museum")) // 2h
	ep.Step(idx(t, c, "The River Seine"))          // 3h
	ep.Step(idx(t, c, "Eiffel Tower"))             // 4.5h
	ep.Step(idx(t, c, "Pantheon"))                 // 5.5h
	// Orsay needs 1.5h: 5.5+1.5 = 7 > 6 → not steppable.
	if ep.CanStep(idx(t, c, "Musée d'Orsay")) {
		t.Fatal("over-budget POI should not be steppable")
	}
	// Rue des Martyrs needs 0.5h → fits exactly.
	if !ep.CanStep(idx(t, c, "Rue des Martyrs")) {
		t.Fatal("fitting POI should be steppable")
	}
	ep.Step(idx(t, c, "Rue des Martyrs"))
	if !ep.Done() {
		t.Fatalf("episode should be done at %v hours / %d items", ep.Credits(), ep.Len())
	}
}

func TestDistanceThresholdFiltersCandidates(t *testing.T) {
	c := fixture.Trip()
	hard := fixture.TripHard()
	hard.MaxDistanceKm = 2
	rw := reward.DefaultTripConfig(fixture.TripTemplate())
	env, err := mdp.NewEnv(c, hard, fixture.TripSoft(), rw, mdp.TimeBudget{Hours: 6, MaxItems: 5})
	if err != nil {
		t.Fatal(err)
	}
	ep, _ := env.Start(idx(t, c, "Eiffel Tower"))
	// Pantheon is ~4 km from the Eiffel Tower: beyond the 2 km budget.
	if ep.CanStep(idx(t, c, "Pantheon")) {
		t.Fatal("distant POI should be filtered by d")
	}
	if ep.Distance() != 0 {
		t.Fatalf("distance after start = %v", ep.Distance())
	}
}

// TestPropertyEpisodeMatchesDirectRecomputation pins the precomputation
// layer to the definitional path: random walks over the gap-3 course
// environment and a distance-constrained trip environment, comparing every
// candidate's Transition facts against recomputation from the catalog —
// prereq.Satisfied over a freshly built position map (vs the incremental
// prereqOK cache), NewCoverage over raw topic vectors (vs the precomputed
// T^m ∩ T_ideal facts), and float64 Haversine path length (vs the float32
// distance matrix).
func TestPropertyEpisodeMatchesDirectRecomputation(t *testing.T) {
	tripHard := fixture.TripHard()
	tripHard.MaxDistanceKm = 15 // activate the distance matrix, loose enough to walk
	tripRW := reward.DefaultTripConfig(fixture.TripTemplate())
	tripDistEnv, err := mdp.NewEnv(fixture.Trip(), tripHard, fixture.TripSoft(), tripRW,
		mdp.TimeBudget{Hours: 6, MaxItems: 5})
	if err != nil {
		t.Fatal(err)
	}
	envs := map[string]*mdp.Env{
		"course":   courseEnv(t), // gap 3: frontier crossings lag admissions
		"tripDist": tripDistEnv,  // theme gap + distance matrix
	}
	for name, env := range envs {
		t.Run(name, func(t *testing.T) {
			c := env.Catalog()
			gap := env.Hard().Gap
			ideal := env.Soft().Ideal
			rng := rand.New(rand.NewSource(7))
			for walk := 0; walk < 30; walk++ {
				ep, err := env.Start(rng.Intn(env.NumItems()))
				if err != nil {
					t.Fatal(err)
				}
				for !ep.Done() {
					seq := ep.Sequence()
					// Definitional state, rebuilt from scratch each step.
					posMap := make(map[string]int, len(seq))
					current := bitset.New(c.Vocabulary().Len())
					pathKm := 0.0
					for p, it := range seq {
						m := c.At(it)
						posMap[m.ID] = p
						current.UnionInPlace(m.Topics)
						if p > 0 {
							prev := c.At(seq[p-1])
							pathKm += geo.Haversine(
								geo.Point{Lat: prev.Lat, Lon: prev.Lon},
								geo.Point{Lat: m.Lat, Lon: m.Lon})
						}
					}
					if math.Abs(ep.Distance()-pathKm) > math.Max(pathKm*1e-6, 1e-9) {
						t.Fatalf("walk %d len %d: Distance %v, haversine path %v",
							walk, ep.Len(), ep.Distance(), pathKm)
					}
					for idx := 0; idx < env.NumItems(); idx++ {
						skip := false
						for _, it := range seq {
							if it == idx {
								skip = true
							}
						}
						if skip {
							continue
						}
						m := c.At(idx)
						tr := ep.Transition(idx)
						if want := prereq.Satisfied(m.Prereq, ep.Len(), posMap, gap); tr.PrereqOK != want {
							t.Fatalf("walk %d len %d item %s: cached PrereqOK=%v, Satisfied=%v (seq %v)",
								walk, ep.Len(), m.ID, tr.PrereqOK, want, seq)
						}
						if want := m.Topics.NewCoverage(current, ideal); tr.CoverageGain != want {
							t.Fatalf("walk %d len %d item %s: CoverageGain=%d, NewCoverage=%d",
								walk, ep.Len(), m.ID, tr.CoverageGain, want)
						}
					}
					cands := ep.Candidates()
					if len(cands) == 0 {
						break
					}
					ep.Step(cands[rng.Intn(len(cands))])
				}
			}
		})
	}
}

// TestEpisodeResetMatchesFreshStart checks that a recycled episode is
// observationally identical to a freshly started one: after any walk,
// Reset must leave no residue in the coverage set, position array, chosen
// flags or prerequisite cache.
func TestEpisodeResetMatchesFreshStart(t *testing.T) {
	for name, env := range map[string]*mdp.Env{"course": courseEnv(t), "trip": tripEnv(t)} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			recycled, err := env.Start(0)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 20; trial++ {
				// Dirty the recycled episode with a random walk.
				for !recycled.Done() {
					cands := recycled.Candidates()
					if len(cands) == 0 {
						break
					}
					recycled.Step(cands[rng.Intn(len(cands))])
				}
				start := rng.Intn(env.NumItems())
				if err := recycled.Reset(start); err != nil {
					t.Fatal(err)
				}
				fresh, err := env.Start(start)
				if err != nil {
					t.Fatal(err)
				}
				// Replay an identical walk on both and compare everything.
				for !fresh.Done() {
					if recycled.Len() != fresh.Len() || recycled.Credits() != fresh.Credits() ||
						recycled.Distance() != fresh.Distance() ||
						!recycled.Coverage().Equal(fresh.Coverage()) {
						t.Fatalf("trial %d: state diverged at len %d", trial, fresh.Len())
					}
					cands := fresh.Candidates()
					gotCands := recycled.Candidates()
					if len(cands) != len(gotCands) {
						t.Fatalf("trial %d: candidates %v vs %v", trial, gotCands, cands)
					}
					for i := range cands {
						if cands[i] != gotCands[i] {
							t.Fatalf("trial %d: candidates %v vs %v", trial, gotCands, cands)
						}
						want, got := fresh.Transition(cands[i]), recycled.Transition(cands[i])
						if want.PrereqOK != got.PrereqOK || want.ThemeOK != got.ThemeOK ||
							want.CoverageGain != got.CoverageGain {
							t.Fatalf("trial %d item %d: transition %+v vs %+v", trial, cands[i], got, want)
						}
					}
					if len(cands) == 0 {
						break
					}
					next := cands[rng.Intn(len(cands))]
					if r1, r2 := fresh.Step(next), recycled.Step(next); r1 != r2 {
						t.Fatalf("trial %d: reward %v vs %v", trial, r2, r1)
					}
				}
			}
		})
	}
}

func TestRewardValueMatchesEquation2(t *testing.T) {
	env := courseEnv(t)
	c := env.Catalog()
	ep, _ := env.Start(idx(t, c, "Data Structures and Algorithms")) // primary
	// Add Data Mining (secondary): sequence [P,S].
	// Match vectors vs template: I1=[P,P,..]→[1,0]; I2=[P,S,..]→[1,1]; I3=[P,S,..]→[1,1].
	// Sims: 1*1/2=0.5; 2*2/2=2; 2. AvgSim = 4.5/3 = 1.5.
	want := 0.6*1.5 + 0.4*0.4
	got := ep.Reward(idx(t, c, "Data Mining"))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("reward = %v, want %v", got, want)
	}
}

func TestCandidatesExcludeChosen(t *testing.T) {
	env := courseEnv(t)
	ep, _ := env.Start(0)
	cands := ep.Candidates()
	if len(cands) != 5 {
		t.Fatalf("candidates = %v, want 5 items", cands)
	}
	for _, i := range cands {
		if i == 0 {
			t.Fatal("start item among candidates")
		}
	}
}
