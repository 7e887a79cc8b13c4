// Package eval scores recommendations the way the experimental section
// does (§IV-A "Measures"):
//
//   - Course plans score max_{I∈IT} Sim(plan, I)^H (Equation 6 evaluated
//     per ideal composition, highest value kept). The handcrafted gold
//     standards score 10 (Univ-1) and 15 (Univ-2) — the perfect-match
//     bound at plan length H.
//   - Trip plans score the mean POI popularity on the 1–5 scale; the gold
//     standard scores 5, the highest popularity of any POI.
//   - A plan that violates the hard constraints scores 0 — this is how
//     OMEGA's frequent constraint failures appear as 0 bars in Figure 1
//     and 0 cells in Tables IX/XIV.
//
// The package also provides the rater-panel surrogate for the user study
// of §IV-C (see DESIGN.md §3 for the substitution argument).
package eval

import (
	"math"
	"math/rand"
	"slices"

	"github.com/rlplanner/rlplanner/internal/bitset"
	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/prereq"
	"github.com/rlplanner/rlplanner/internal/seqsim"
)

// Detail is a fully itemized plan evaluation.
type Detail struct {
	// Score is the §IV-A score: 0 on hard-constraint violation, otherwise
	// the interleaving score (courses) or mean popularity (trips).
	Score float64
	// Violations lists every failed hard constraint.
	Violations []constraints.Violation
	// Interleave is max_{I∈IT} Sim(plan, I) regardless of violations.
	Interleave float64
	// Coverage is |T_plan ∩ T_ideal| / |T_ideal|.
	Coverage float64
	// MeanPopularity is the average POI popularity (trips; 0 for courses).
	MeanPopularity float64
	// OrderingValid is the fraction of plan positions whose antecedent and
	// theme-gap requirements hold.
	OrderingValid float64
}

// Evaluate scores a plan against its instance's default hard constraints.
func Evaluate(inst *dataset.Instance, plan []int) Detail {
	return EvaluateWith(inst, inst.Hard, plan)
}

// EvaluateWith scores a plan against explicit hard constraints — used when
// an experiment overrides the time or distance thresholds (Tables VIII,
// XV, XVI) so the plan is judged by the budget it was planned under.
//
// The server scores every plan it serves with it, so its cost follows
// the plan, not the catalog or the vocabulary: constraints.Check and
// orderingValidity look antecedents up in the plan's own id list,
// coverage counts the plan's own ideal topics against a memoized
// |T_ideal| (dataset.Instance.IdealCount), and the per-position buffers
// live on the stack. On a plan that satisfies P_hard it allocates
// nothing.
func EvaluateWith(inst *dataset.Instance, hard constraints.Hard, plan []int) Detail {
	var d Detail
	if len(plan) == 0 {
		return d
	}
	c := inst.Catalog
	d.Violations = constraints.Check(c, plan, hard)
	var types [constraints.PlanBuf]item.Type
	d.Interleave = seqsim.MaxSim(c.AppendTypes(types[:0], plan), inst.Soft.Template)
	d.Coverage = coverage(inst, plan)

	if inst.Kind == dataset.TripPlanning {
		var sum float64
		for _, idx := range plan {
			sum += c.At(idx).Popularity
		}
		d.MeanPopularity = sum / float64(len(plan))
	}

	d.OrderingValid = orderingValidity(inst, hard, plan)

	if len(d.Violations) == 0 {
		if inst.Kind == dataset.TripPlanning {
			d.Score = d.MeanPopularity
		} else {
			d.Score = d.Interleave
		}
	}
	return d
}

// planTopics sizes the stack buffer coverage keeps per covered ideal
// topic: a plan that covers more spills it to the heap and scores the
// same.
const planTopics = 256

// coverage returns |T_plan ∩ T_ideal| / |T_ideal|, where T_plan is the
// union of the plan's topic vectors, and 1 when T_ideal is empty
// (topics.CoverageRatio). It lists each item's topics that T_ideal
// holds and counts the distinct ones, so it reads the plan's topics
// only, never a vocabulary-wide vector.
func coverage(inst *dataset.Instance, plan []int) float64 {
	want := inst.IdealCount()
	if want == 0 {
		return 1
	}
	c := inst.Catalog
	ideal := &inst.Soft.Ideal
	var buf [planTopics]int32
	hits := buf[:0]
	for _, idx := range plan {
		t := c.At(idx).Topics
		hits = bitset.AppendIntersection(hits, &t, ideal)
	}
	slices.Sort(hits)
	return float64(len(slices.Compact(hits))) / float64(want)
}

// Score is the headline §IV-A score of a plan.
func Score(inst *dataset.Instance, plan []int) float64 {
	return Evaluate(inst, plan).Score
}

// ScoreWith is Score against explicit hard constraints.
func ScoreWith(inst *dataset.Instance, hard constraints.Hard, plan []int) float64 {
	return EvaluateWith(inst, hard, plan).Score
}

// orderingValidity computes the fraction of positions whose antecedent gap
// and theme-gap rules hold — the basis of the "Ordering of Items" user
// study question.
func orderingValidity(inst *dataset.Instance, hard constraints.Hard, plan []int) float64 {
	if len(plan) == 0 {
		return 0
	}
	c := inst.Catalog
	var buf [constraints.PlanBuf]string
	placed := prereq.PlacedIn(buf[:])
	valid := 0
	for pos, idx := range plan {
		m := c.At(idx)
		ok := prereq.SatisfiedAfter(m.Prereq, placed, hard.Gap)
		if ok && hard.ThemeGap && pos > 0 {
			prev := c.At(plan[pos-1])
			if m.Category >= 0 && m.Category == prev.Category {
				ok = false
			}
		}
		if ok {
			valid++
		}
		placed = placed.Add(m.ID)
	}
	return float64(valid) / float64(len(plan))
}

// StudyConfig parameterizes the rater-panel surrogate.
type StudyConfig struct {
	// Raters is the panel size: 25 students for courses, 5 travelers per
	// itinerary × 10 itineraries for trips (§IV-C).
	Raters int
	// Seed drives rater noise.
	Seed int64
	// Noise is the per-rater rating standard deviation (default 0.35).
	Noise float64
}

// Ratings are the mean panel answers to the four §IV-C questions on the
// 1–5 scale.
type Ratings struct {
	// Overall answers "Overall Rating".
	Overall float64
	// Ordering answers "Ordering of Items".
	Ordering float64
	// Coverage answers "Topic/Theme Coverage".
	Coverage float64
	// Interleaving answers "Core and Elective Interleaving" (courses) /
	// "Distance and Time Threshold" (trips).
	Interleaving float64
}

// raterHarshness maps a perfect quality to ≈4.1 overall rather than 5 —
// panels rarely award full marks even to expert gold standards (the
// paper's gold plans average 4.12/4.5, not 5).
const raterHarshness = 0.78

// RatePlan runs the simulated rater panel over one plan. Each of the four
// questions is grounded in the measurable plan quality it asks about:
// overall = normalized §IV-A score, ordering = antecedent/theme validity,
// coverage = ideal-topic coverage, interleaving = template closeness (or,
// for trips, threshold compliance). Raters add seeded Gaussian noise and
// the panel mean is reported — preserving the relative ordering the real
// study measures.
func RatePlan(inst *dataset.Instance, plan []int, cfg StudyConfig) Ratings {
	if cfg.Raters <= 0 {
		cfg.Raters = 25
	}
	if cfg.Noise == 0 {
		cfg.Noise = 0.35
	}
	d := Evaluate(inst, plan)

	length := float64(inst.Hard.Length())
	if length == 0 {
		length = float64(len(plan))
	}
	overallQ := d.Score / inst.GoldScore
	if inst.Kind == dataset.TripPlanning {
		// Trip raters judge the itinerary itself even when a threshold is
		// missed; popularity on [1,5] normalizes to [0,1].
		overallQ = (d.MeanPopularity - 1) / 4
		if len(d.Violations) > 0 {
			overallQ *= 0.6
		}
	}
	interQ := d.Interleave / length
	if inst.Kind == dataset.TripPlanning {
		// "Distance and Time Threshold": fraction of threshold checks met.
		interQ = thresholdCompliance(d)
	}

	// Raters judge topic coverage against what a plan of this length can
	// achieve, not against covering the entire ideal set (|T_ideal| is 60+
	// topics for 10 courses): a saturating transform maps the achievable
	// range onto the upper rating region.
	coverageQ := 1 - math.Pow(1-math.Max(0, math.Min(1, d.Coverage)), 3)

	rng := rand.New(rand.NewSource(cfg.Seed))
	rate := func(q float64) float64 {
		q = math.Max(0, math.Min(1, q))
		var sum float64
		for r := 0; r < cfg.Raters; r++ {
			v := 1 + 4*raterHarshness*q + rng.NormFloat64()*cfg.Noise
			sum += math.Max(1, math.Min(5, v))
		}
		return sum / float64(cfg.Raters)
	}
	return Ratings{
		Overall:      rate(overallQ),
		Ordering:     rate(d.OrderingValid),
		Coverage:     rate(coverageQ),
		Interleaving: rate(interQ),
	}
}

// thresholdCompliance scores trip threshold satisfaction: 1 when neither
// the time nor the distance threshold is violated, reduced per violation.
func thresholdCompliance(d Detail) float64 {
	q := 1.0
	for _, v := range d.Violations {
		switch v.Kind {
		case constraints.ViolationCredits, constraints.ViolationDistance:
			q -= 0.5
		}
	}
	if q < 0 {
		return 0
	}
	return q
}
