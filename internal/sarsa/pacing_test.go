package sarsa

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/mdp"
)

// cheapestCompletionFits is the pacing filter's completion test as it
// was first written, kept as completion's reference: it lists the
// step's candidates and sorts the other candidates' credits for every
// item it tests.
func cheapestCompletionFits(env *mdp.Env, ep *mdp.Episode, ceiling float64, a, k int) bool {
	budget := ceiling - ep.Credits() - env.ItemCredits(a)
	if budget < 0 {
		return false
	}
	var costs []float64
	for _, c := range ep.Candidates() {
		if c != a {
			costs = append(costs, env.ItemCredits(c))
		}
	}
	if len(costs) < k {
		return false
	}
	sort.Float64s(costs)
	var need float64
	for i := 0; i < k; i++ {
		need += costs[i]
	}
	return need <= budget
}

// pacedTrip is a built-in city as an uploaded trip spec may state it:
// the same catalog under MaxCredits with a 2-primary/3-secondary split,
// so the guided walk runs the pacing filter at every step.
func pacedTrip(inst *dataset.Instance) *dataset.Instance {
	paced := &dataset.Instance{
		Name: inst.Name + "-paced", Kind: inst.Kind, Catalog: inst.Catalog, Hard: inst.Hard, Soft: inst.Soft,
		DefaultStart: inst.DefaultStart, Defaults: inst.Defaults, GoldScore: inst.GoldScore,
	}
	paced.Hard.Primary, paced.Hard.Secondary = 2, 3
	return paced
}

// TestCompletionFitsMatchesReference compares completion with
// cheapestCompletionFits for every item, in a random order, at every
// step of random walks and for every completion length up to the
// slots left, reusing one completion, and so its sort buffer, throughout. The trips are Paris and NYC with type counts and the
// fixture trip of Example 2; their visit times tie often, and the test
// requires steps where the item's own credit ties another candidate's.
func TestCompletionFitsMatchesReference(t *testing.T) {
	envs := map[string]*mdp.Env{"fixture-trip": walkTripEnv(t)}
	for _, inst := range trip.Instances() {
		paced := pacedTrip(inst)
		envs[paced.Name] = instanceEnv(t, paced, paced.Defaults.Sim, false)
	}
	for name, env := range envs {
		t.Run(name, func(t *testing.T) {
			n, hard := env.NumItems(), env.Hard()
			rng := rand.New(rand.NewSource(int64(n)))
			var compared, tied int
			var fits completion
			for walk := 0; walk < 40; walk++ {
				ep, err := env.Start(rng.Intn(n))
				if err != nil {
					t.Fatal(err)
				}
				for !ep.Done() {
					cands := ep.Candidates()
					credits := map[float64]int{}
					for _, c := range cands {
						credits[env.ItemCredits(c)]++
					}
					for k := 0; k <= hard.Length()-ep.Len(); k++ {
						fits.reset(env, ep, hard.Credits, k)
						for _, a := range rng.Perm(n) {
							got, want := fits.fits(a), cheapestCompletionFits(env, ep, hard.Credits, a, k)
							if got != want {
								t.Fatalf("walk %d at %v, item %d, k %d: completion %v, reference %v",
									walk, ep.Sequence(), a, k, got, want)
							}
							compared++
							if ep.CanStep(a) && credits[env.ItemCredits(a)] > 1 {
								tied++
							}
						}
					}
					if len(cands) == 0 {
						break
					}
					ep.Step(cands[rng.Intn(len(cands))])
				}
			}
			if tied == 0 {
				t.Fatalf("%d answers compared, none for a candidate whose credit ties another's", compared)
			}
		})
	}
}
