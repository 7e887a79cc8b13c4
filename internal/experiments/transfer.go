package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/eval"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/stats"
	"github.com/rlplanner/rlplanner/internal/transfer"
)

// TransferCase is one row of the §IV-D transfer-learning study.
type TransferCase struct {
	// Learnt and Applied name the source and target instances.
	Learnt, Applied string
	// GoodPlan is a transferred recommendation that satisfies all hard
	// constraints (guided walk), rendered as "id : role" steps.
	GoodPlan []string
	// BadPlan is a transferred recommendation from the raw Algorithm 1
	// walk that misses at least one hard constraint — the paper's "less
	// effective" cases.
	BadPlan []string
	// GoodScore and BadScore are the §IV-A scores of the two plans.
	GoodScore, BadScore float64
	// Mapping summarizes how target items matched source items.
	Mapping transfer.Mapping
}

// transferBetween learns on src and recommends on dst through the item
// mapping.
func transferBetween(src, dst *dataset.Instance, cfg Config) (*TransferCase, error) {
	cfg = cfg.withDefaults()
	pol, err := engine.Train(context.Background(), "sarsa", src,
		core.Options{Seed: cfg.BaseSeed, Episodes: cfg.Episodes})
	if err != nil {
		return nil, err
	}
	moved, mapping, err := engine.Transfer(pol, dst, core.Options{Seed: cfg.BaseSeed + 1})
	if err != nil {
		return nil, err
	}

	good, err := moved.Recommend(engine.DefaultStart)
	if err != nil {
		return nil, err
	}
	// The raw Algorithm 1 walk surfaces "bad" outcomes. Walk several
	// starts until one misses a constraint; fall back to the raw default
	// plan otherwise.
	target := moved.(engine.ValuePolicy)
	raw := func(start int) ([]int, error) { return target.Values().Recommend(target.Env(), start) }
	bad, err := raw(dst.StartIndex())
	if err != nil {
		return nil, err
	}
	for start := 0; start < dst.Catalog.Len() && eval.Score(dst, bad) > 0; start++ {
		cand, err := raw(start)
		if err != nil {
			return nil, err
		}
		if eval.Score(dst, cand) == 0 {
			bad = cand
			break
		}
	}

	return &TransferCase{
		Learnt:    src.Name,
		Applied:   dst.Name,
		GoodPlan:  describePlan(dst, good),
		BadPlan:   describePlan(dst, bad),
		GoodScore: eval.Score(dst, good),
		BadScore:  eval.Score(dst, bad),
		Mapping:   *mapping,
	}, nil
}

// describePlan renders a plan as "id : core/elective" steps (Table V's
// notation) for courses, or plain ids for trips.
func describePlan(inst *dataset.Instance, plan []int) []string {
	out := make([]string, len(plan))
	for i, idx := range plan {
		m := inst.Catalog.At(idx)
		if inst.Kind == dataset.CoursePlanning {
			role := "elective"
			if m.Type == item.Primary {
				role = "core"
			}
			out[i] = fmt.Sprintf("%s : %s", m.ID, role)
		} else {
			out[i] = m.ID
		}
	}
	return out
}

// transferPair runs both transfer directions between two instances,
// fanning the independent directions across the pool.
func transferPair(a, b *dataset.Instance, cfg Config) ([]*TransferCase, error) {
	pairs := [2][2]*dataset.Instance{{a, b}, {b, a}}
	cases := make([]*TransferCase, len(pairs))
	err := forEach(cfg.workers(), len(pairs), func(i int) error {
		c, err := transferBetween(pairs[i][0], pairs[i][1], cfg)
		if err != nil {
			return err
		}
		cases[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cases, nil
}

// Table5 reproduces the course transfer study: M.S. CS ↔ M.S. DS-CT.
func Table5(cfg Config) ([]*TransferCase, error) {
	return transferPair(univ.Univ1CS(), univ.Univ1DSCT(), cfg)
}

// Table7 reproduces the trip transfer study: NYC ↔ Paris.
func Table7(cfg Config) ([]*TransferCase, error) {
	return transferPair(trip.NYC().Instance, trip.Paris().Instance, cfg)
}

// TransferTable renders transfer cases in the Table V / Table VII layout.
func TransferTable(cases []*TransferCase, title string) *stats.Table {
	t := &stats.Table{
		Title:  title,
		Header: []string{"Learnt", "Applied", "Kind", "Score", "Sequence"},
	}
	for _, c := range cases {
		t.AddRow(c.Learnt, c.Applied, "Good", stats.F2(c.GoodScore), strings.Join(c.GoodPlan, " → "))
		t.AddRow("", "", "Bad", stats.F2(c.BadScore), strings.Join(c.BadPlan, " → "))
	}
	return t
}

// Table8Row describes one RL-Planner itinerary with the thresholds it
// meets (Table VIII).
type Table8Row struct {
	City      string
	Itinerary []string
	Types     []string
	TimeHours float64
	DistKm    float64
}

// Table8 reproduces the itinerary-description table: for each city, two
// RL-Planner itineraries with their POI types, total time and distance.
func Table8(cfg Config) ([]Table8Row, error) {
	cfg = cfg.withDefaults()
	cities := []*trip.CityData{trip.NYC(), trip.Paris()}
	const variants = 2
	// The (city, variant) grid is four independent learn+plan jobs.
	rows := make([]Table8Row, len(cities)*variants)
	err := forEach(cfg.workers(), len(rows), func(j int) error {
		ci, v := j/variants, j%variants
		inst := cities[ci].Instance
		pol, err := engine.Train(context.Background(), "sarsa", inst, core.Options{
			Seed:     cfg.BaseSeed + int64(ci*10+v),
			Episodes: cfg.Episodes,
			// The paper's Table VIII varies t and d per itinerary.
			TimeLimit:     []float64{6, 8}[v],
			MaxDistanceKm: []float64{4, 5}[v],
		})
		if err != nil {
			return err
		}
		plan, err := pol.Recommend(engine.DefaultStart)
		if err != nil {
			return err
		}
		types := make([]string, len(plan))
		for i, idx := range plan {
			m := inst.Catalog.At(idx)
			types[i] = inst.Catalog.Vocabulary().Name(m.Category)
		}
		rows[j] = Table8Row{
			City:      inst.Name,
			Itinerary: inst.Catalog.SequenceIDs(plan),
			Types:     types,
			TimeHours: inst.Catalog.TotalCredits(plan),
			DistKm:    pathDistance(inst, plan),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// pathDistance sums the legs of a plan.
func pathDistance(inst *dataset.Instance, plan []int) float64 {
	pts := make([]geo.Point, len(plan))
	for i, idx := range plan {
		m := inst.Catalog.At(idx)
		pts[i] = geo.Point{Lat: m.Lat, Lon: m.Lon}
	}
	return geo.PathLength(pts)
}

// Table8Table renders Table VIII.
func Table8Table(rows []Table8Row) *stats.Table {
	t := &stats.Table{
		Title:  "Table VIII: RL-Planner itinerary descriptions",
		Header: []string{"City", "Itinerary", "Types", "Time(h)", "Dist(km)"},
	}
	for _, r := range rows {
		t.AddRow(r.City, strings.Join(r.Itinerary, ", "), strings.Join(r.Types, ","),
			stats.F2(r.TimeHours), stats.F2(r.DistKm))
	}
	return t
}
