package mdp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/mdp"
)

// TestRewindMatchesStart pins Reset, which undoes only what the previous
// trajectory wrote, to Env.Start's full initialisation. Random walks of
// every length, from no step past the start to the budget's end, some
// abandoned mid-walk and some stepping items CanStep refuses as
// exploring learners may, are each followed by Reset(s), which must
// leave every field of the episode as Start(s) builds it. The cases are
// the six built-ins (the courses' gap of 3 included) and synthetic geo
// catalogs on every distance-store tier, under a binding and a
// non-binding budget.
func TestRewindMatchesStart(t *testing.T) {
	type rewindCase struct {
		name string
		inst *dataset.Instance
		opts core.Options
		// flips requires walks that moved the prerequisite cache.
		flips bool
	}
	var cases []rewindCase
	for _, inst := range univ.Univ1All() {
		cases = append(cases, rewindCase{name: inst.Name, inst: inst, flips: true})
	}
	cases = append(cases, rewindCase{name: univ.Univ2DS().Name, inst: univ.Univ2DS(), flips: true})
	for _, inst := range trip.Instances() {
		cases = append(cases, rewindCase{name: inst.Name, inst: inst})
	}
	for _, n := range []int{300, geo.DefaultDistMatrixMaxItems + 76, geo.DefaultExactHaversineMaxItems + 104} {
		inst, err := synth.Generate(synth.Params{Items: n, Geo: true, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []float64{40, 1e6} {
			cases = append(cases, rewindCase{
				name: fmt.Sprintf("synth-%d/budget=%g", n, budget),
				inst: inst,
				opts: core.Options{MaxDistanceKm: budget},
			})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, err := core.BuildEnv(tc.inst, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			n := env.NumItems()
			rng := rand.New(rand.NewSource(int64(n)))
			ep, err := env.Start(rng.Intn(n))
			if err != nil {
				t.Fatal(err)
			}
			flips := 0
			for round := 0; round < 3; round++ {
				// Walk `steps` steps, or until the budget ends the walk;
				// the round is over once a walk ends before its length.
				for steps, ended := 0, false; !ended; steps++ {
					for k := 0; k < steps; k++ {
						if ep.Done() {
							ended = true
							break
						}
						ep.Step(nextStep(ep, n, rng))
					}
					flips += mdp.PrereqFlips(ep)
					start := rng.Intn(n)
					if err := ep.Reset(start); err != nil {
						t.Fatal(err)
					}
					fresh, err := env.Start(start)
					if err != nil {
						t.Fatal(err)
					}
					if f := mdp.EpisodeDiff(ep, fresh); f != "" {
						t.Fatalf("round %d, walk of %d steps: Reset(%d) and Start(%d) differ in %s",
							round, steps, start, start, f)
					}
				}
			}
			if tc.flips && flips == 0 {
				t.Error("no walk moved the prerequisite cache")
			}
		})
	}
}

// nextStep picks a random candidate, or, one time in five and whenever
// no candidate is left, a random unchosen item CanStep refuses.
func nextStep(ep *mdp.Episode, n int, rng *rand.Rand) int {
	if cands := ep.Candidates(); len(cands) > 0 && rng.Intn(5) > 0 {
		return cands[rng.Intn(len(cands))]
	}
	chosen := make(map[int]bool, ep.Len())
	for _, i := range ep.Sequence() {
		chosen[i] = true
	}
	for {
		if i := rng.Intn(n); !chosen[i] {
			return i
		}
	}
}
