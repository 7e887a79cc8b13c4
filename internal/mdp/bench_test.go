package mdp_test

import (
	"testing"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/mdp"
)

// benchEnv wires the Univ-1 DS-CT instance into an environment the way
// training does, so the benchmarks exercise the exact learning-time hot path.
func benchEnv(b *testing.B) (*mdp.Env, int) {
	b.Helper()
	inst := univ.Univ1DSCT()
	env, err := core.BuildEnv(inst, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return env, inst.StartIndex()
}

// benchTripEnv wires the NYC trip instance — distance threshold, theme
// gap and museum-before-restaurant prerequisites all active — so the
// benchmarks cover the geometry-heavy trip variant of the step loop.
func benchTripEnv(b *testing.B) (*mdp.Env, int) {
	b.Helper()
	inst := trip.NYC().Instance
	env, err := core.BuildEnv(inst, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return env, inst.StartIndex()
}

// BenchmarkEpisodeStep walks full greedy episodes: per step it collects
// the candidate set and evaluates every candidate's Equation 2 reward —
// the inner loop of both SARSA learning and the EDA baseline. With the
// scratch-transition path and Episode.Reset this must report 0 allocs/op;
// run with -benchmem to see alloc regressions without regenerating full
// figures.
// The trip sub-benchmark exercises the distance-constrained path (CanStep
// geometry + prereq + theme gates on every candidate).
func BenchmarkEpisodeStep(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func(*testing.B) (*mdp.Env, int)
	}{
		{"univ1dsct", benchEnv},
		{"tripNYC", benchTripEnv},
	} {
		b.Run(tc.name, func(b *testing.B) {
			env, start := tc.mk(b)
			ep, err := env.Start(start)
			if err != nil {
				b.Fatal(err)
			}
			var cands []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ep.Reset(start); err != nil {
					b.Fatal(err)
				}
				for !ep.Done() {
					cands = ep.AppendCandidates(cands[:0])
					if len(cands) == 0 {
						break
					}
					best, bestR := cands[0], -1.0
					for _, c := range cands {
						if r := ep.Reward(c); r > bestR {
							best, bestR = c, r
						}
					}
					ep.Step(best)
				}
			}
		})
	}
}

// BenchmarkEpisodeReward isolates one candidate evaluation on a
// mid-episode state.
func BenchmarkEpisodeReward(b *testing.B) {
	env, start := benchEnv(b)
	ep, err := env.Start(start)
	if err != nil {
		b.Fatal(err)
	}
	// Advance to a mid-episode state so the type sequence is non-trivial.
	for s := 0; s < 4 && !ep.Done(); s++ {
		cands := ep.Candidates()
		if len(cands) == 0 {
			break
		}
		ep.Step(cands[0])
	}
	cands := ep.Candidates()
	if len(cands) == 0 {
		b.Fatal("no candidates at mid-episode state")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += ep.Reward(cands[i%len(cands)])
	}
	_ = sink
}

// BenchmarkAppendCandidates measures the candidate scan with a reused
// buffer — the other half of the per-step cost.
func BenchmarkAppendCandidates(b *testing.B) {
	env, start := benchEnv(b)
	ep, err := env.Start(start)
	if err != nil {
		b.Fatal(err)
	}
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ep.AppendCandidates(buf[:0])
	}
	_ = buf
}
