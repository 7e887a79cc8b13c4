package experiments

import (
	"context"
	"sort"

	"github.com/rlplanner/rlplanner/internal/baselines/gold"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/eval"
	"github.com/rlplanner/rlplanner/internal/stats"
)

// Table4Result holds the §IV-C user-study ratings: the four questions for
// RL-Planner and the gold standard, separately for course and trip
// planning.
type Table4Result struct {
	CourseRL, CourseGold eval.Ratings
	TripRL, TripGold     eval.Ratings
}

// Table4 reproduces Table IV with the simulated rater panel: 25 student
// raters judge the M.S. DS-CT plans; 50 traveler raters (5 per itinerary,
// 5 itineraries per city) judge the NYC and Paris itineraries.
func Table4(cfg Config) (*Table4Result, error) {
	cfg = cfg.withDefaults()
	var out Table4Result

	// Course planning: M.S. DS-CT (the program of the paper's study). The
	// panel rates the system's representative output: the median-scoring
	// plan over a few learning seeds.
	inst := univ.Univ1DSCT()
	rlPlan, err := medianPlanOverSeeds(inst, cfg, 3)
	if err != nil {
		return nil, err
	}
	goldPlan, err := gold.Plan(inst)
	if err != nil {
		return nil, err
	}
	study := eval.StudyConfig{Raters: 25, Seed: cfg.BaseSeed}
	out.CourseRL = eval.RatePlan(inst, rlPlan, study)
	study.Seed++
	out.CourseGold = eval.RatePlan(inst, goldPlan, study)

	// Trip planning: pool NYC and Paris ratings (5 itineraries each,
	// 5 raters per itinerary) by averaging the two cities' panels. The two
	// city panels are independent, so they run on the pool.
	cities := []*struct {
		rl, gd eval.Ratings
	}{{}, {}}
	tripInsts := trip.Instances()
	err = forEach(cfg.workers(), len(tripInsts), func(ci int) error {
		cityInst := tripInsts[ci]
		tPlan, err := medianPlanOverSeeds(cityInst, cfg, 3)
		if err != nil {
			return err
		}
		gPlan, err := gold.Plan(cityInst)
		if err != nil {
			return err
		}
		sc := eval.StudyConfig{Raters: 25, Seed: cfg.BaseSeed + 100 + int64(ci)}
		cities[ci].rl = eval.RatePlan(cityInst, tPlan, sc)
		sc.Seed += 10
		cities[ci].gd = eval.RatePlan(cityInst, gPlan, sc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.TripRL = averageRatings(cities[0].rl, cities[1].rl)
	out.TripGold = averageRatings(cities[0].gd, cities[1].gd)
	return &out, nil
}

// medianPlanOverSeeds learns with several seeds and keeps the
// median-scoring plan — the representative output of the system, neither
// a lucky nor an unlucky run.
func medianPlanOverSeeds(inst *dataset.Instance, cfg Config, seeds int) ([]int, error) {
	type scored struct {
		plan  []int
		score float64
	}
	all := make([]scored, seeds)
	err := forEach(cfg.workers(), seeds, func(s int) error {
		pol, err := engine.Train(context.Background(), "sarsa", inst,
			core.Options{Seed: cfg.BaseSeed + int64(s), Episodes: cfg.Episodes})
		if err != nil {
			return err
		}
		plan, err := pol.Recommend(engine.DefaultStart)
		if err != nil {
			return err
		}
		all[s] = scored{plan, eval.Score(inst, plan)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score < all[j].score })
	return all[len(all)/2].plan, nil
}

func averageRatings(a, b eval.Ratings) eval.Ratings {
	return eval.Ratings{
		Overall:      (a.Overall + b.Overall) / 2,
		Ordering:     (a.Ordering + b.Ordering) / 2,
		Coverage:     (a.Coverage + b.Coverage) / 2,
		Interleaving: (a.Interleaving + b.Interleaving) / 2,
	}
}

// Table4Table renders the result in the paper's Table IV layout.
func Table4Table(r *Table4Result) *stats.Table {
	t := &stats.Table{
		Title: "Table IV: Average Ratings (user-study surrogate, 1–5)",
		Header: []string{"Question", "Course RL-Planner", "Course Gold",
			"Trip RL-Planner", "Trip Gold"},
	}
	row := func(q string, f func(eval.Ratings) float64) {
		t.AddRow(q,
			stats.F2(f(r.CourseRL)), stats.F2(f(r.CourseGold)),
			stats.F2(f(r.TripRL)), stats.F2(f(r.TripGold)))
	}
	row("Overall Rating", func(x eval.Ratings) float64 { return x.Overall })
	row("Ordering of Items", func(x eval.Ratings) float64 { return x.Ordering })
	row("Topic/Theme Coverage", func(x eval.Ratings) float64 { return x.Coverage })
	row("Interleaving / Thresholds", func(x eval.Ratings) float64 { return x.Interleaving })
	return t
}
