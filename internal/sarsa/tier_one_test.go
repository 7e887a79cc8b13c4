package sarsa

// Equivalence property of the guided walk's first tier: tierOne, which
// visits a step's reward levels in decreasing order and asks Q's arg-max
// for the best open item of the first level that has one, must return
// what bestRewardThenQ's scan over every item returns, at every step.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/qtable"
	"github.com/rlplanner/rlplanner/internal/reward"
	"github.com/rlplanner/rlplanner/internal/seqsim"
)

// sparsePolicyTable is randomPolicyTable for catalogs too large for a
// dense table: k cells per row of a sparse-backed table, drawn from the
// same tie-saturated value set.
func sparsePolicyTable(rng *rand.Rand, n, k int) *qtable.Table {
	q := qtable.NewWithDenseMax(n, 1)
	vals := []float64{-1, 0, 0.25, 0.25, 0.5, 1, 1}
	for s := 0; s < n; s++ {
		for j := 0; j < k; j++ {
			q.Set(s, rng.Intn(n), vals[rng.Intn(len(vals))])
		}
	}
	return q
}

// bumpedOverlay layers feedback-like nudges over q, on about two cells
// per state, so most rows a walk reads are shadowed.
func bumpedOverlay(rng *rand.Rand, q *qtable.Table) *qtable.Overlay {
	n := q.Size()
	o := qtable.NewOverlay(q, 4*n)
	for i := 0; i < 2*n; i++ {
		o.Bump(rng.Intn(n), rng.Intn(n), 4*rng.Float64()-2)
	}
	return o
}

// tierReaders returns the Q readers a case walks: a trained table, an
// adversarial one (dense up to maxDense items, else sparse), the
// sparse-backed copy of each dense table, and an overlay over the
// trained table.
func tierReaders(t *testing.T, env *mdp.Env, rng *rand.Rand, episodes, maxDense int) map[string]qtable.Reader {
	t.Helper()
	n := env.NumItems()
	res, err := Learn(env, Config{Episodes: episodes, Alpha: 0.8, Gamma: 0.9, Start: RandomStart, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	trained := res.Policy.Q
	readers := map[string]qtable.Reader{
		"trained":         trained,
		"trained/overlay": bumpedOverlay(rng, trained),
	}
	if trained.IsDense() {
		readers["trained/sparse"] = sparseCopy(trained)
	}
	if n <= maxDense {
		adversarial := randomPolicyTable(rng, n)
		readers["random"] = adversarial
		readers["random/sparse"] = sparseCopy(adversarial)
	} else {
		readers["random/sparse"] = sparsePolicyTable(rng, n, 64)
	}
	return readers
}

// checkTierOne walks guided episodes reading Q through r and compares
// tierOne with bestRewardThenQ at every step, under the walk's own mask
// with every item for which exclude is true refused. The walks mostly
// take tier 1's answer and sometimes a random candidate. It returns the
// steps compared and, of those, the ones where the scan's tolerance
// picked an item below the exact top reward.
func checkTierOne(t *testing.T, env *mdp.Env, r qtable.Reader, walks int, rng *rand.Rand, exclude func(int) bool) (steps, tolerant int) {
	t.Helper()
	n := env.NumItems()
	q, err := viewOf(r)
	if err != nil {
		t.Fatal(err)
	}
	var sc, ref walkScratch
	var f guidedFilter
	for walk := 0; walk < walks; walk++ {
		ep, err := env.Start(rng.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		for !ep.Done() {
			s := ep.Last()
			f.reset(env, ep)
			allowed := func(a int) bool {
				return ep.CanStep(a) && (exclude == nil || !exclude(a)) && f.allows(a)
			}
			got, gotOK := tierOne(env, ep, q, s, allowed, f.primaryOnly, &sc)
			want, wantOK := bestRewardThenQ(ep, q, s, allowed, &ref)
			if got != want || gotOK != wantOK {
				t.Fatalf("walk %d at %v: tierOne = (%d,%v), bestRewardThenQ (%d,%v)",
					walk, ep.Sequence(), got, gotOK, want, wantOK)
			}
			steps++
			if wantOK && ep.Reward(want) != maxReward(ep, n, allowed) {
				tolerant++
			}
			next := got
			if !gotOK || rng.Intn(3) == 0 {
				cands := ep.Candidates()
				if len(cands) == 0 {
					break
				}
				next = cands[rng.Intn(len(cands))]
			}
			ep.Step(next)
		}
	}
	return steps, tolerant
}

// maxReward is the largest immediate reward among the allowed items.
func maxReward(ep *mdp.Episode, n int, allowed func(int) bool) float64 {
	best := 0.0
	for a := 0; a < n; a++ {
		if allowed(a) {
			best = max(best, ep.Reward(a))
		}
	}
	return best
}

// excludeSet refuses about one item in twenty, as a session refuses the
// items its user rejected.
func excludeSet(rng *rand.Rand, n int) func(int) bool {
	refused := make([]bool, n)
	for i := 0; i < n/20+1; i++ {
		refused[rng.Intn(n)] = true
	}
	return func(a int) bool { return refused[a] }
}

// runTierCase checks every reader of an environment, with and without
// an exclude set, and returns the tolerant steps seen.
func runTierCase(t *testing.T, env *mdp.Env, rng *rand.Rand, episodes, maxDense, walks int) (tolerant int) {
	t.Helper()
	for name, r := range tierReaders(t, env, rng, episodes, maxDense) {
		for _, exclude := range []func(int) bool{nil, excludeSet(rng, env.NumItems())} {
			steps, tol := checkTierOne(t, env, r, walks, rng, exclude)
			if steps == 0 {
				t.Fatalf("%s: no step compared", name)
			}
			tolerant += tol
		}
	}
	return tolerant
}

// TestTierOneMatchesFullScan is the equivalence property over every
// built-in instance, each similarity mode and both gates (Univ-2's
// category weights and the trips' popularity levels and pacing filter
// included), synthetic catalogs on both sides of the dense-Q threshold,
// dense, sparse-backed and overlay readers, trained and tie-saturated
// tables, and exclude sets.
func TestTierOneMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	builtins := append(univ.Univ1All(), univ.Univ2DS())
	builtins = append(builtins, trip.Instances()...)
	for _, inst := range builtins {
		for _, mode := range []seqsim.Mode{seqsim.Average, seqsim.Minimum, seqsim.LevenshteinAverage} {
			for _, soft := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/soft=%v", inst.Name, mode, soft), func(t *testing.T) {
					runTierCase(t, instanceEnv(t, inst, mode, soft), rng, 60, 4096, 4)
				})
			}
		}
	}
	for _, n := range []int{300, 1100, 4200, 8192} {
		t.Run(fmt.Sprintf("synth-%d", n), func(t *testing.T) {
			inst, err := synth.Generate(synth.Params{Items: n, Geo: true, Seed: int64(n)})
			if err != nil {
				t.Fatal(err)
			}
			runTierCase(t, instanceEnv(t, inst, inst.Defaults.Sim, false), rng, 16, 1100, 2)
		})
	}
}

// TestTierOneFallsBackOnCloseLevels walks a hand-built configuration
// whose two reward levels lie 1e-9 apart: with δ = 0 an open primary
// scores w1 and an open secondary w2 = w1 − 1e-9. bestRewardThenQ's
// tolerance ties the two types, so tierOne must defer to it; the test
// requires steps where that changed the answer.
func TestTierOneFallsBackOnCloseLevels(t *testing.T) {
	inst := univ.Univ1DSCT()
	rw := reward.Config{
		Delta:    0,
		Beta:     1,
		Epsilon:  inst.Defaults.Epsilon,
		Weights:  reward.Weights{Primary: 0.5 + 5e-10, Secondary: 0.5 - 5e-10},
		Sim:      seqsim.Average,
		Template: inst.Soft.Template,
	}
	env, err := mdp.NewEnv(inst.Catalog, inst.Hard, inst.Soft, rw, mdp.CountBudget{H: inst.Hard.Length()})
	if err != nil {
		t.Fatal(err)
	}
	if tolerant := runTierCase(t, env, rand.New(rand.NewSource(3)), 60, 4096, 8); tolerant == 0 {
		t.Fatal("the scan's tolerance never changed an answer; the fallback went untested")
	}
}
