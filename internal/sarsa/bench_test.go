package sarsa

import (
	"math/rand"
	"testing"

	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/qtable"
	"github.com/rlplanner/rlplanner/internal/reward"
)

// benchEnv builds the Univ-1 DS-CT environment with its Table III
// defaults.
func benchEnv(b *testing.B) (*mdp.Env, int) {
	b.Helper()
	return courseEnv(b, univ.Univ1DSCT())
}

// courseEnv builds a course-planning instance's environment with its
// Table III defaults, mirroring core.New without importing it (an
// in-package test cannot depend on core, which imports sarsa).
func courseEnv(b *testing.B, inst *dataset.Instance) (*mdp.Env, int) {
	b.Helper()
	d := inst.Defaults
	rw := reward.Config{
		Delta:    d.Delta,
		Beta:     d.Beta,
		Epsilon:  d.Epsilon,
		Weights:  reward.Weights{Primary: d.W1, Secondary: d.W2, Category: d.CategoryWeights},
		Sim:      d.Sim,
		Template: inst.Soft.Template,
	}
	env, err := mdp.NewEnv(inst.Catalog, inst.Hard, inst.Soft, rw,
		mdp.CountBudget{H: inst.Hard.Length()})
	if err != nil {
		b.Fatal(err)
	}
	return env, inst.StartIndex()
}

// BenchmarkSelectAction measures one greedy action selection — the
// per-step core of Algorithm 1's learning loop: candidate scan plus an
// Equation 2 evaluation per candidate. Run with -benchmem; with the
// scratch buffers this must stay at zero allocs/op.
func BenchmarkSelectAction(b *testing.B) {
	env, start := benchEnv(b)
	for _, sel := range []Selection{RewardGreedy, QGreedy} {
		b.Run(sel.String(), func(b *testing.B) {
			ep, err := env.Start(start)
			if err != nil {
				b.Fatal(err)
			}
			q := qtable.New(env.NumItems())
			rng := rand.New(rand.NewSource(1))
			var sc scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e := selectAction(ep, ep.Last(), q, sel, 0, rng, &sc); e < 0 {
					b.Fatal("no action available")
				}
			}
		})
	}
}

// BenchmarkGuidedWalk measures one guided recommendation walk at
// catalog scale: an 8192-item synthetic geo catalog, above the dense-Q
// and exact-distance limits, so the walk reads a sparse Q table and
// the quantized neighbor store, under a short training run. Each walk
// scores every item at every step; fallbacks/walk counts the exact
// Haversine recomputations the neighbor store made per walk.
func BenchmarkGuidedWalk(b *testing.B) {
	inst, err := synth.Generate(synth.Params{Name: "catalog-8k", Items: 8192, Geo: true, Seed: 8192})
	if err != nil {
		b.Fatal(err)
	}
	env, start := courseEnv(b, inst)
	res, err := Learn(env, Config{Episodes: 16, Alpha: 0.75, Gamma: 0.95, Start: start, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	starts := rand.New(rand.NewSource(8192)).Perm(env.NumItems())[:64]
	b.ReportAllocs()
	b.ResetTimer()
	before := geo.FallbackTotal()
	for i := 0; i < b.N; i++ {
		if _, err := res.Policy.RecommendGuided(env, starts[i%len(starts)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(geo.FallbackTotal()-before)/float64(b.N), "fallbacks/walk")
}

// BenchmarkLearn measures a short end-to-end learning run, the unit the
// experiment pool fans out per seed.
func BenchmarkLearn(b *testing.B) {
	env, start := benchEnv(b)
	cfg := Config{Episodes: 50, Alpha: 0.75, Gamma: 0.95, Start: start, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := Learn(env, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
