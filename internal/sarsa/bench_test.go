package sarsa

import (
	"math/rand"
	"testing"

	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/qtable"
	"github.com/rlplanner/rlplanner/internal/reward"
	"github.com/rlplanner/rlplanner/internal/seqsim"
)

// benchEnv builds the Univ-1 DS-CT environment with its Table III
// defaults.
func benchEnv(b *testing.B) (*mdp.Env, int) {
	b.Helper()
	inst := univ.Univ1DSCT()
	return instanceEnv(b, inst, inst.Defaults.Sim, false), inst.StartIndex()
}

// instanceEnv builds an instance's environment with its Table III
// defaults, Equation 2's similarity mode sim and, when soft is set, the
// SoftGate variant, as core.BuildEnv does (an in-package test cannot
// depend on core, which imports sarsa).
func instanceEnv(tb testing.TB, inst *dataset.Instance, sim seqsim.Mode, soft bool) *mdp.Env {
	tb.Helper()
	d := inst.Defaults
	isTrip := inst.Kind == dataset.TripPlanning
	rw := reward.Config{
		Delta:           d.Delta,
		Beta:            d.Beta,
		Epsilon:         d.Epsilon,
		Weights:         reward.Weights{Primary: d.W1, Secondary: d.W2, Category: d.CategoryWeights},
		Sim:             sim,
		Template:        inst.Soft.Template,
		PopularityScale: isTrip,
		SoftGate:        soft,
	}
	var budget mdp.Budget = mdp.CountBudget{H: inst.Hard.Length()}
	if isTrip {
		budget = mdp.TimeBudget{Hours: inst.Hard.Credits, MaxItems: inst.Hard.Length()}
	}
	env, err := mdp.NewEnv(inst.Catalog, inst.Hard, inst.Soft, rw, budget)
	if err != nil {
		tb.Fatal(err)
	}
	return env
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

// BenchmarkGuidedWalk measures one guided recommendation walk on each
// path of the walk's first tier, after a short training run:
//   - catalog-8k: an 8192-item synthetic geo catalog, above the dense-Q
//     and exact-distance limits, so the walk reads a sparse Q table and
//     the quantized neighbor store;
//   - dense-2048: a 2048-item one, whose Q table is dense (32 MiB);
//   - trip-Paris: the built-in city, whose popularity-scaled weights
//     make 69 reward levels, under the time budget's pacing filter;
//   - catalog-8k-softgate: catalog-8k under the SoftGate variant, where
//     rewards have no levels and every step scores every item.
//
// fallbacks/walk counts the exact Haversine recomputations the neighbor
// store made per walk.
func BenchmarkGuidedWalk(b *testing.B) {
	synthetic := func(name string, n int) func() (*dataset.Instance, error) {
		return func() (*dataset.Instance, error) {
			return synth.Generate(synth.Params{Name: name, Items: n, Geo: true, Seed: int64(n)})
		}
	}
	for _, bc := range []struct {
		name string
		inst func() (*dataset.Instance, error)
		soft bool
	}{
		{"catalog-8k", synthetic("catalog-8k", 8192), false},
		{"dense-2048", synthetic("catalog-2k", 2048), false},
		{"trip-Paris", func() (*dataset.Instance, error) { return trip.Paris().Instance, nil }, false},
		{"catalog-8k-softgate", synthetic("catalog-8k", 8192), true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			inst, err := bc.inst()
			if err != nil {
				b.Fatal(err)
			}
			env := instanceEnv(b, inst, inst.Defaults.Sim, bc.soft)
			res, err := Learn(env, Config{Episodes: 16, Alpha: 0.75, Gamma: 0.95, Start: inst.StartIndex(), Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			n := env.NumItems()
			starts := rand.New(rand.NewSource(int64(n))).Perm(n)[:min(64, n)]
			b.ReportAllocs()
			b.ResetTimer()
			before := geo.FallbackTotal()
			for i := 0; i < b.N; i++ {
				if _, err := res.Policy.RecommendGuided(env, starts[i%len(starts)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(geo.FallbackTotal()-before)/float64(b.N), "fallbacks/walk")
		})
	}
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
