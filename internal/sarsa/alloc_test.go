package sarsa

import (
	"math/rand"
	"testing"

	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/qtable"
)

// TestGuidedWalkAllocatesOnlyItsSequence requires a warm guided walk to
// allocate one object, the sequence it returns: its masks stay on the
// stack and its tie, level and pacing buffers come from walkPool. The
// walks run on an 8192-item synthetic geo catalog (sparse Q, neighbor
// store), on Paris with a type split (the pacing filter at every step)
// and on Univ-1 DS-CT through an overlay that carries feedback on most
// states.
func TestGuidedWalkAllocatesOnlyItsSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on an 8192-item catalog")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops pooled buffers at random under -race")
	}
	catalog8k, err := synth.Generate(synth.Params{Name: "catalog-8k", Items: 8192, Geo: true, Seed: 8192})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		inst    *dataset.Instance
		overlay bool
	}{
		{"catalog-8k", catalog8k, false},
		{"trip-Paris-paced", pacedTrip(trip.Paris().Instance), false},
		{"Univ-1-DS-CT/overlay", univ.Univ1DSCT(), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := instanceEnv(t, c.inst, c.inst.Defaults.Sim, false)
			res, err := Learn(env, Config{Episodes: 16, Alpha: 0.75, Gamma: 0.95, Start: c.inst.StartIndex(), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			p := res.Policy
			var r qtable.Reader = p.Q
			if c.overlay {
				r = bumpedOverlay(rand.New(rand.NewSource(1)), p.Q)
			}
			n := env.NumItems()
			starts := rand.New(rand.NewSource(int64(n))).Perm(n)[:min(16, n)]
			for _, start := range starts { // warm the pools
				if _, err := p.RecommendGuidedOver(env, start, r); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(64, func() {
				if _, err := p.RecommendGuidedOver(env, starts[i%len(starts)], r); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs > 1 {
				t.Errorf("a guided walk allocates %v objects, want 1 (the sequence)", allocs)
			}
		})
	}
}
