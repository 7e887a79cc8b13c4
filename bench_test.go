// Benchmarks regenerating every table and figure of the paper's
// evaluation (§IV). Each benchmark runs the corresponding experiment
// end-to-end; DESIGN.md §4 maps benchmark names to paper artifacts, and
// cmd/benchharness prints the same results as text tables.
//
// The benchmarks use a reduced run count per iteration so `go test
// -bench=. -benchmem` finishes in minutes; the harness's default mode
// reproduces the paper's 10-run averages.
package rlplanner

import (
	"context"
	"fmt"
	"testing"

	"github.com/rlplanner/rlplanner/internal/baselines/omega"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/eval"
	"github.com/rlplanner/rlplanner/internal/experiments"
	"github.com/rlplanner/rlplanner/internal/qtable"
	"github.com/rlplanner/rlplanner/internal/sarsa"
	"github.com/rlplanner/rlplanner/internal/seqsim"
	"github.com/rlplanner/rlplanner/internal/valueiter"
)

// benchConfig keeps per-iteration work bounded. Workers is left zero, so
// runs fan out across GOMAXPROCS; the Sequential variant below pins
// Workers: 1 to expose the pool's speedup in the same bench output.
var benchConfig = experiments.Config{Runs: 3, BaseSeed: 1, Episodes: 200}

func BenchmarkFig1CoursePlanning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1Courses(benchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1CoursePlanningSequential(b *testing.B) {
	cfg := benchConfig
	cfg.Workers = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1Courses(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1TripPlanning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1Trips(benchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4UserStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(benchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5TransferCourses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(benchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7TransferTrips(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table7(benchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8Itineraries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table8(benchConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// Sweep benchmarks use a smaller run count: each sweep already multiplies
// work by |values| × 2 similarity modes.
var sweepConfig = experiments.Config{Runs: 2, BaseSeed: 1, Episodes: 150}

func BenchmarkTable9Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table9(sweepConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable10Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table10(sweepConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable11Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table11(sweepConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable12Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table12(sweepConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable13Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table13(sweepConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable14Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table14(sweepConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable15Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table15(sweepConfig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable16Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table16(sweepConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2LearnScaling measures policy-learning time as a function
// of N on Univ-1 DS-CT — the linear-scaling claim of Figure 2(a)/(c).
func BenchmarkFig2LearnScaling(b *testing.B) {
	inst := univ.Univ1DSCT()
	for _, n := range []int{100, 200, 300, 500, 1000} {
		b.Run(byEpisodes(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Train(context.Background(), "sarsa", inst, core.Options{Episodes: n, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2RecommendScaling measures recommendation time against a
// policy learned with varying N — the interactive-speed claim of Figure
// 2(b)/(d).
func BenchmarkFig2RecommendScaling(b *testing.B) {
	inst := trip.NYC().Instance
	for _, n := range []int{100, 500, 1000} {
		p, _ := trainPlan(b, "sarsa", inst, core.Options{Episodes: n, Seed: 1})
		b.Run(byEpisodes(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Recommend(engine.DefaultStart); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byEpisodes(n int) string { return fmt.Sprintf("N=%d", n) }

// trainPlan trains the named engine through engine.Train, the path every
// learner takes, and returns the policy with its default-start plan.
func trainPlan(b *testing.B, name string, inst *dataset.Instance, opts core.Options) (engine.ValuePolicy, []int) {
	b.Helper()
	p, err := engine.Train(context.Background(), name, inst, opts)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := p.Recommend(engine.DefaultStart)
	if err != nil {
		b.Fatal(err)
	}
	return p.(engine.ValuePolicy), plan
}

// --- Ablation benches for the design choices DESIGN.md §5 calls out. ---

// BenchmarkAblationSimilarity compares average vs minimum similarity in
// the reward (the paper runs both everywhere).
func BenchmarkAblationSimilarity(b *testing.B) {
	inst := univ.Univ1DSCT()
	for _, mode := range []seqsim.Mode{seqsim.Average, seqsim.Minimum} {
		b.Run(mode.String(), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				_, plan := trainPlan(b, "sarsa", inst, core.Options{
					Episodes: 200, Seed: int64(i), Sim: mode, HasSim: true,
				})
				total += eval.Score(inst, plan)
			}
			b.ReportMetric(total/float64(b.N), "score/op")
		})
	}
}

// BenchmarkAblationSelection compares Algorithm 1's reward-greedy action
// selection against classical Q-greedy SARSA exploitation.
func BenchmarkAblationSelection(b *testing.B) {
	inst := univ.Univ1DSCT()
	for _, sel := range []sarsa.Selection{sarsa.RewardGreedy, sarsa.QGreedy} {
		b.Run(sel.String(), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				_, plan := trainPlan(b, "sarsa", inst, core.Options{
					Episodes: 200, Seed: int64(i), Selection: sel,
				})
				total += eval.Score(inst, plan)
			}
			b.ReportMetric(total/float64(b.N), "score/op")
		})
	}
}

// BenchmarkAblationGuidedWalk compares the guided (validity-aware)
// recommendation walk against the raw Algorithm 1 Q walk.
func BenchmarkAblationGuidedWalk(b *testing.B) {
	inst := univ.Univ1DSCT()
	p, _ := trainPlan(b, "sarsa", inst, core.Options{Episodes: 300, Seed: 1})
	start := inst.StartIndex()
	b.Run("guided", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			plan, err := p.Recommend(start)
			if err != nil {
				b.Fatal(err)
			}
			total += eval.Score(inst, plan)
		}
		b.ReportMetric(total/float64(b.N), "score/op")
	})
	b.Run("raw", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			plan, err := p.Values().Recommend(p.Env(), start)
			if err != nil {
				b.Fatal(err)
			}
			total += eval.Score(inst, plan)
		}
		b.ReportMetric(total/float64(b.N), "score/op")
	})
}

// BenchmarkAblationQTableSize measures Q-table operations at the three
// catalog scales the datasets use (31, 114 and 1216 items).
func BenchmarkAblationQTableSize(b *testing.B) {
	for _, n := range []int{31, 114, 1216} {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			q := qtable.New(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.Update(i%n, (i+1)%n, 0.75, 1, 0.95, (i+2)%n, (i+3)%n)
				q.ArgMax(i%n, nil)
			}
		})
	}
}

// BenchmarkAblationAlgorithm compares SARSA against off-policy Q-learning
// — the paper picks SARSA as "known to converge faster and with fewer
// errors" (§III-C).
func BenchmarkAblationAlgorithm(b *testing.B) {
	inst := univ.Univ1DSCT()
	for _, alg := range []sarsa.Algorithm{sarsa.SARSA, sarsa.QLearning} {
		b.Run(alg.String(), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				_, plan := trainPlan(b, alg.String(), inst, core.Options{
					Episodes: 200, Seed: int64(i),
				})
				total += eval.Score(inst, plan)
			}
			b.ReportMetric(total/float64(b.N), "score/op")
		})
	}
}

// BenchmarkAblationSolver compares SARSA policy iteration against the
// value-iteration solver on the same MDP abstraction — the §III-C
// methodological choice, made empirical.
func BenchmarkAblationSolver(b *testing.B) {
	inst := univ.Univ1DSCT()
	b.Run("sarsa", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			_, plan := trainPlan(b, "sarsa", inst, core.Options{Episodes: 500, Seed: int64(i)})
			total += eval.Score(inst, plan)
		}
		b.ReportMetric(total/float64(b.N), "score/op")
	})
	b.Run("value-iteration", func(b *testing.B) {
		env, err := core.BuildEnv(inst, core.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		var total float64
		for i := 0; i < b.N; i++ {
			res, err := valueiter.Solve(env, valueiter.Config{Gamma: 0.95, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			plan, err := res.Policy.RecommendGuided(env, inst.StartIndex())
			if err != nil {
				b.Fatal(err)
			}
			total += eval.Score(inst, plan)
		}
		b.ReportMetric(total/float64(b.N), "score/op")
	})
}

// BenchmarkCatalogScaling measures end-to-end learning+planning across
// catalog sizes spanning the datasets' range (toy program → full
// institution scale), on synthetic workloads from the generator.
func BenchmarkCatalogScaling(b *testing.B) {
	for _, n := range []int{31, 114, 300, 600, 1216} {
		inst := synth.MustGenerate(synth.Params{
			Name: fmt.Sprintf("syn../%d", n), Items: n, Seed: int64(n),
		})
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trainPlan(b, "sarsa", inst, core.Options{Episodes: 100, Seed: int64(i)})
			}
		})
	}
}

// BenchmarkAblationOmegaUtility compares the redesigned co-coverage OMEGA
// against the original co-visit OMEGA on the NYC itinerary logs.
func BenchmarkAblationOmegaUtility(b *testing.B) {
	city := trip.NYC()
	inst := city.Instance
	env, err := core.BuildEnv(inst, core.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	seqs := make([][]int, len(city.Itineraries))
	for i, it := range city.Itineraries {
		seqs[i] = []int(it)
	}
	covisit := omega.CoVisit(inst.Catalog.Len(), seqs)
	cocover := omega.CoCoverage(inst.Catalog)
	for _, tc := range []struct {
		name string
		m    [][]int
	}{{"co-coverage", cocover}, {"co-visit", covisit}} {
		b.Run(tc.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				plan, err := omega.PlanUtility(env, inst.StartIndex(), tc.m)
				if err != nil {
					b.Fatal(err)
				}
				total += eval.Score(inst, plan)
			}
			b.ReportMetric(total/float64(b.N), "score/op")
		})
	}
}

// BenchmarkAblationThetaGate compares Eq. 5's multiplicative θ gate
// against a subtractive soft-penalty variant: hard gating is what makes
// Theorem 1 hold, and the soft variant shows what the learner does when
// it may trade validity for similarity.
func BenchmarkAblationThetaGate(b *testing.B) {
	inst := univ.Univ1DSCT()
	for _, tc := range []struct {
		name string
		soft bool
	}{{"product-gate", false}, {"soft-penalty", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				_, plan := trainPlan(b, "sarsa", inst, core.Options{
					Episodes: 200, Seed: int64(i), SoftThetaGate: tc.soft,
				})
				total += eval.Score(inst, plan)
			}
			b.ReportMetric(total/float64(b.N), "score/op")
		})
	}
}
