package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/eval"
	"github.com/rlplanner/rlplanner/internal/sarsa"
	"github.com/rlplanner/rlplanner/internal/seqsim"
	"github.com/rlplanner/rlplanner/internal/stats"
)

// AblationRow is one variant of one design dimension, measured on the
// Univ-1 DS-CT instance.
type AblationRow struct {
	// Dimension names the design choice; Variant the alternative.
	Dimension, Variant string
	// Score is the mean §IV-A score over runs.
	Score float64
	// LearnTime is the mean policy-construction time.
	LearnTime time.Duration
	// ConvergedAt is the mean learning-curve settling episode (-1 when
	// not applicable or never settled).
	ConvergedAt int
}

// Ablations measures the design choices DESIGN.md §5 calls out:
// similarity aggregation, action selection, TD algorithm, recommendation
// walk and solver.
func Ablations(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	inst := univ.Univ1DSCT()
	var rows []AblationRow

	// runRL trains the named registry engine per seed and measures score,
	// construction time and learning-curve convergence. The raw variant
	// replays the plain Algorithm 1 walk over the trained values instead
	// of the guided recommendation.
	runRL := func(dim, variant, engineName string, opts core.Options, raw bool) error {
		scores := make([]float64, cfg.Runs)
		times := make([]time.Duration, cfg.Runs)
		convs := make([]int, cfg.Runs)
		err := forEach(cfg.workers(), cfg.Runs, func(r int) error {
			o := opts
			o.Seed = cfg.BaseSeed + int64(r)
			if cfg.Episodes > 0 {
				o.Episodes = cfg.Episodes
			}
			t0 := time.Now()
			pol, err := engine.Train(context.Background(), engineName, inst, o)
			if err != nil {
				return err
			}
			times[r] = time.Since(t0)
			vp := pol.(engine.ValuePolicy)
			var plan []int
			if raw {
				plan, err = vp.Values().Recommend(vp.Env(), inst.StartIndex())
			} else {
				plan, err = pol.Recommend(engine.DefaultStart)
			}
			if err != nil {
				return err
			}
			scores[r] = eval.Score(inst, plan)
			convs[r] = stats.ConvergedAt(vp.LearningCurve(), 40, 2.0)
			return nil
		})
		if err != nil {
			return err
		}
		var learn time.Duration
		var conv, convRuns int
		for r := 0; r < cfg.Runs; r++ {
			learn += times[r]
			if convs[r] >= 0 {
				conv += convs[r]
				convRuns++
			}
		}
		row := AblationRow{
			Dimension: dim, Variant: variant,
			Score:       stats.Mean(scores),
			LearnTime:   learn / time.Duration(cfg.Runs),
			ConvergedAt: -1,
		}
		if convRuns > 0 {
			row.ConvergedAt = conv / convRuns
		}
		rows = append(rows, row)
		return nil
	}

	// Similarity aggregation (the paper runs avg and min everywhere; the
	// lev variant swaps in the true edit distance).
	for _, m := range []seqsim.Mode{seqsim.Average, seqsim.Minimum, seqsim.LevenshteinAverage} {
		if err := runRL("similarity", m.String(), "sarsa", core.Options{Sim: m, HasSim: true}, false); err != nil {
			return nil, err
		}
	}
	// Action selection during learning.
	for _, sel := range []sarsa.Selection{sarsa.RewardGreedy, sarsa.QGreedy} {
		if err := runRL("selection", sel.String(), "sarsa", core.Options{Selection: sel}, false); err != nil {
			return nil, err
		}
	}
	// TD algorithm: the registry name picks the update rule.
	for _, name := range []string{"sarsa", "qlearning"} {
		if err := runRL("algorithm", name, name, core.Options{}, false); err != nil {
			return nil, err
		}
	}
	// Recommendation walk.
	if err := runRL("walk", "guided", "sarsa", core.Options{}, false); err != nil {
		return nil, err
	}
	if err := runRL("walk", "raw (Algorithm 1)", "sarsa", core.Options{}, true); err != nil {
		return nil, err
	}

	// Solver: value iteration on the same abstraction (γ = 0.95, as the
	// pre-registry ablation ran it).
	viScores := make([]float64, cfg.Runs)
	viTimes := make([]time.Duration, cfg.Runs)
	viIterPerRun := make([]int, cfg.Runs)
	err := forEach(cfg.workers(), cfg.Runs, func(r int) error {
		o := core.Options{Gamma: 0.95, Seed: cfg.BaseSeed + int64(r)}
		t0 := time.Now()
		pol, err := engine.Train(context.Background(), "valueiter", inst, o)
		if err != nil {
			return err
		}
		viTimes[r] = time.Since(t0)
		plan, err := pol.Recommend(inst.StartIndex())
		if err != nil {
			return err
		}
		viScores[r] = eval.Score(inst, plan)
		viIterPerRun[r] = pol.(engine.ValuePolicy).Iterations()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var viTime time.Duration
	var viIters int
	for r := 0; r < cfg.Runs; r++ {
		viTime += viTimes[r]
		viIters += viIterPerRun[r]
	}
	rows = append(rows, AblationRow{
		Dimension: "solver", Variant: "value-iteration",
		Score:       stats.Mean(viScores),
		LearnTime:   viTime / time.Duration(cfg.Runs),
		ConvergedAt: viIters / cfg.Runs,
	})
	return rows, nil
}

// AblationTable renders the ablation rows.
func AblationTable(rows []AblationRow) *stats.Table {
	t := &stats.Table{
		Title:  "Ablations (Univ-1 M.S. DS-CT)",
		Header: []string{"Dimension", "Variant", "Score", "Learn", "Converged@"},
	}
	for _, r := range rows {
		conv := "—"
		if r.ConvergedAt >= 0 {
			conv = fmt.Sprintf("%d", r.ConvergedAt)
		}
		t.AddRow(r.Dimension, r.Variant, stats.F2(r.Score),
			r.LearnTime.Round(time.Microsecond).String(), conv)
	}
	return t
}
