// Package rlplanner is the public API of RL-Planner, a reproduction of
// "Guided Task Planning Under Complex Constraints" (ICDE 2022). It plans
// sequences of items — courses toward a degree, points of interest into a
// day trip — that satisfy hard constraints (credit totals, primary/
// secondary splits, prerequisite gaps, time and distance budgets) while
// maximizing soft constraints (ideal topic coverage and closeness to an
// expert interleaving template), by learning a SARSA policy over a
// constrained Markov decision process.
//
// Quick start:
//
//	inst, _ := rlplanner.InstanceByName("Univ-1 M.S. DS-CT")
//	pol, _ := rlplanner.Train(context.Background(), inst, "sarsa", rlplanner.Options{Seed: 1})
//	plan, _ := pol.Recommend("")
//	fmt.Println(plan.IDs(), plan.Score)
//
// Train runs the learning phase of Algorithm 1 (or any other engine of
// the registry, see Engines) and returns a Policy: the one trained
// artifact, which recommends plans from any start, saves and loads,
// transfers to a related instance and drives interactive sessions.
//
// The built-in instances reproduce the paper's datasets: four university
// degree programs (NJIT-style Univ-1 and Stanford-style Univ-2) and two
// city trips (NYC, Paris) derived from a simulated Flickr photo log. Use
// NewInstance to plan over your own catalog.
package rlplanner

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/eval"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/prereq"
	"github.com/rlplanner/rlplanner/internal/seqsim"
)

// Instance is one planning problem: an item catalog with its hard and
// soft constraints and default parameters.
type Instance struct {
	inner *dataset.Instance
}

// Name returns the instance name, e.g. "Univ-1 M.S. DS-CT" or "Paris".
func (in *Instance) Name() string { return in.inner.Name }

// IsTrip reports whether this is a trip-planning instance.
func (in *Instance) IsTrip() bool { return in.inner.Kind == dataset.TripPlanning }

// NumItems returns the catalog size |I|.
func (in *Instance) NumItems() int { return in.inner.Catalog.Len() }

// Topics returns the topic/theme vocabulary.
func (in *Instance) Topics() []string { return in.inner.Catalog.Vocabulary().Names() }

// GoldScore returns the gold-standard score bound (10, 15 or 5).
func (in *Instance) GoldScore() float64 { return in.inner.GoldScore }

// DefaultStart returns the default starting item id (s_1 of Table III).
func (in *Instance) DefaultStart() string { return in.inner.DefaultStart }

// Fingerprint identifies the instance's catalog — the same value
// Policy.Fingerprint reports for policies trained on it. Two instances
// share a fingerprint exactly when their catalogs are identical.
func (in *Instance) Fingerprint() string { return engine.Fingerprint(in.inner) }

// HasItem reports whether the catalog contains an item with the id.
func (in *Instance) HasItem(id string) bool {
	_, ok := in.inner.Catalog.Index(id)
	return ok
}

// Item describes one catalog item.
type Item struct {
	// ID uniquely identifies the item ("CS 675", "louvre museum").
	ID string
	// Name is the human-readable title.
	Name string
	// Description is the catalog blurb; empty when the dataset has none.
	Description string
	// Primary reports whether the item is required (core / must-visit).
	Primary bool
	// Credits is the credit hours (courses) or visit hours (POIs).
	Credits float64
	// Prerequisite renders the antecedent expression, "[]" when none.
	Prerequisite string
	// Topics lists the topics/themes the item covers.
	Topics []string
	// Popularity is the POI popularity on 1–5 (0 for courses).
	Popularity float64
}

// Items returns the catalog contents.
func (in *Instance) Items() []Item {
	c := in.inner.Catalog
	vocab := c.Vocabulary()
	out := make([]Item, c.Len())
	for i := 0; i < c.Len(); i++ {
		m := c.At(i)
		out[i] = Item{
			ID:           m.ID,
			Name:         m.Name,
			Description:  m.Description,
			Primary:      m.Type == item.Primary,
			Credits:      m.Credits,
			Prerequisite: prereq.Format(m.Prereq),
			Topics:       vocab.Decode(m.Topics),
			Popularity:   m.Popularity,
		}
	}
	return out
}

// builtins holds the built-in instances, constructed once. Building an
// instance compiles its catalog, prerequisite expressions and constraint
// templates from the raw dataset specs — far too expensive to redo on
// every InstanceByName lookup, which sits on the serving hot path.
// Instances are immutable after construction, so sharing them is safe.
var builtins struct {
	once    sync.Once
	courses []*Instance
	trips   []*Instance
	byName  map[string]*Instance
}

func builtinInstances() ([]*Instance, []*Instance, map[string]*Instance) {
	builtins.once.Do(func() {
		for _, in := range append(univ.Univ1All(), univ.Univ2DS()) {
			builtins.courses = append(builtins.courses, &Instance{inner: in})
		}
		for _, in := range trip.Instances() {
			builtins.trips = append(builtins.trips, &Instance{inner: in})
		}
		builtins.byName = make(map[string]*Instance)
		for _, in := range append(builtins.courses, builtins.trips...) {
			builtins.byName[in.Name()] = in
		}
	})
	return builtins.courses, builtins.trips, builtins.byName
}

// CourseInstances returns the four built-in degree programs (§IV-A1):
// Univ-1 M.S. DS-CT, Univ-1 M.S. Cybersecurity, Univ-1 M.S. CS and
// Univ-2 M.S. DS.
func CourseInstances() []*Instance {
	courses, _, _ := builtinInstances()
	return append([]*Instance(nil), courses...)
}

// TripInstances returns the two built-in city trips: NYC and Paris.
func TripInstances() []*Instance {
	_, trips, _ := builtinInstances()
	return append([]*Instance(nil), trips...)
}

// Instances returns every built-in instance.
func Instances() []*Instance {
	courses, trips, _ := builtinInstances()
	out := make([]*Instance, 0, len(courses)+len(trips))
	return append(append(out, courses...), trips...)
}

// InstanceByName finds a built-in instance by its exact name.
func InstanceByName(name string) (*Instance, error) {
	_, _, byName := builtinInstances()
	if in, ok := byName[name]; ok {
		return in, nil
	}
	return nil, fmt.Errorf("rlplanner: unknown instance %q (have %v)", name, instanceNames())
}

func instanceNames() []string {
	var out []string
	for _, in := range Instances() {
		out = append(out, in.Name())
	}
	return out
}

// Options tune the planner; zero values keep the instance's Table III
// defaults. These are the knobs the paper's robustness study sweeps.
type Options struct {
	// Episodes is N, the number of learning episodes.
	Episodes int
	// Alpha is the learning rate α ∈ (0, 1].
	Alpha float64
	// Gamma is the discount factor γ ∈ [0, 1].
	Gamma float64
	// Epsilon is the topic coverage threshold ε.
	Epsilon float64
	// Delta and Beta weight the interleaving-similarity and item-type
	// reward terms (δ + β = 1); set both or neither.
	Delta, Beta float64
	// W1 and W2 are the primary/secondary item weights (w1 + w2 = 1).
	W1, W2 float64
	// MinimumSimilarity switches the reward to the min-similarity variant.
	MinimumSimilarity bool
	// Start is the starting item id (defaults to the instance's).
	Start string
	// Seed makes learning and recommendation reproducible.
	Seed int64
	// TimeLimitHours overrides the trip time threshold t.
	TimeLimitHours float64
	// MaxDistanceKm overrides the trip distance threshold d (negative
	// disables the check).
	MaxDistanceKm float64
	// TrainBudget bounds the wall-clock time of one Train call (0 = no
	// bound). A SARSA run that hits the deadline checkpoints its Q table
	// and returns the best-so-far policy with Policy.Degraded reporting
	// "partial"; a run canceled before any episode fails with the
	// context error.
	TrainBudget time.Duration
	// TrainWorkers selects the training schedule: 0 keeps the sequential
	// Algorithm 1 loop, any value >= 1 runs the batch-synchronous
	// parallel protocol — bit-identical results for every worker count,
	// so the knob only changes throughput, never the learned policy.
	TrainWorkers int
}

func (o Options) toCore() core.Options {
	c := core.Options{
		Episodes:      o.Episodes,
		Alpha:         o.Alpha,
		Gamma:         o.Gamma,
		Epsilon:       o.Epsilon,
		Delta:         o.Delta,
		Beta:          o.Beta,
		W1:            o.W1,
		W2:            o.W2,
		Start:         o.Start,
		Seed:          o.Seed,
		TimeLimit:     o.TimeLimitHours,
		MaxDistanceKm: o.MaxDistanceKm,
		TrainBudget:   o.TrainBudget,
		TrainWorkers:  o.TrainWorkers,
	}
	if o.Epsilon != 0 {
		c.HasEpsilon = true
	}
	if o.MinimumSimilarity {
		c.Sim, c.HasSim = seqsim.Minimum, true
	}
	return c
}

// PlanStep is one item of a recommended plan.
type PlanStep struct {
	// ID and Name identify the item.
	ID, Name string
	// Primary reports core/must-visit items.
	Primary bool
	// Credits is the item's credit/visit-hours contribution.
	Credits float64
}

// Plan is a recommended item sequence with its evaluation.
type Plan struct {
	// Steps is the ordered recommendation.
	Steps []PlanStep
	// Score is the paper's §IV-A score: 0 when a hard constraint fails,
	// otherwise the interleaving score (courses) or mean POI popularity
	// (trips).
	Score float64
	// SatisfiesConstraints reports whether every hard constraint holds.
	SatisfiesConstraints bool
	// Violations lists failed hard constraints, human-readable.
	Violations []string
	// CoverageRatio is the fraction of ideal topics covered.
	CoverageRatio float64
	// TotalCredits sums the credit/visit hours.
	TotalCredits float64
}

func newPlan(inst *Instance, hard constraints.Hard, seq []int) *Plan {
	c := inst.inner.Catalog
	d := eval.EvaluateWith(inst.inner, hard, seq)
	plan := &Plan{
		Score:                d.Score,
		SatisfiesConstraints: len(d.Violations) == 0,
		CoverageRatio:        d.Coverage,
		TotalCredits:         c.TotalCredits(seq),
	}
	for _, v := range d.Violations {
		plan.Violations = append(plan.Violations, v.String())
	}
	for _, idx := range seq {
		m := c.At(idx)
		plan.Steps = append(plan.Steps, PlanStep{
			ID: m.ID, Name: m.Name, Primary: m.Type == item.Primary, Credits: m.Credits,
		})
	}
	return plan
}

// IDs returns the plan's item ids in order.
func (p *Plan) IDs() []string {
	out := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		out[i] = s.ID
	}
	return out
}

// baselinePlan trains the named procedural engine and recommends once.
func baselinePlan(inst *Instance, engineName string, opts Options) (*Plan, error) {
	pol, err := Train(context.Background(), inst, engineName, opts)
	if err != nil {
		return nil, err
	}
	return pol.Recommend("")
}

// GoldStandard synthesizes the handcrafted-quality gold plan (§IV-A2)
// via the "gold" engine.
func GoldStandard(inst *Instance) (*Plan, error) {
	return baselinePlan(inst, "gold", Options{})
}

// EDABaseline runs the greedy EDA next-step baseline (§IV-A2) via the
// "eda" engine.
func EDABaseline(inst *Instance, opts Options) (*Plan, error) {
	return baselinePlan(inst, "eda", opts)
}

// OmegaBaseline runs the adapted OMEGA baseline (§IV-A2) via the
// "omega" engine.
func OmegaBaseline(inst *Instance, opts Options) (*Plan, error) {
	return baselinePlan(inst, "omega", opts)
}

// Ratings are the four user-study questions on the 1–5 scale (§IV-C).
type Ratings struct {
	Overall, Ordering, Coverage, Interleaving float64
}

// RatePlan runs the simulated rater panel over a plan.
func RatePlan(inst *Instance, plan *Plan, raters int, seed int64) (Ratings, error) {
	c := inst.inner.Catalog
	seq := make([]int, len(plan.Steps))
	for i, s := range plan.Steps {
		idx, ok := c.Index(s.ID)
		if !ok {
			return Ratings{}, fmt.Errorf("rlplanner: plan item %q not in instance %s", s.ID, inst.Name())
		}
		seq[i] = idx
	}
	r := eval.RatePlan(inst.inner, seq, eval.StudyConfig{Raters: raters, Seed: seed})
	return Ratings{
		Overall:      r.Overall,
		Ordering:     r.Ordering,
		Coverage:     r.Coverage,
		Interleaving: r.Interleaving,
	}, nil
}

// ExplainPlan renders an advisor-style justification for every plan step:
// its role, the antecedents it satisfies (or violates) and the ideal
// topics it newly covers.
func ExplainPlan(inst *Instance, plan *Plan) ([]string, error) {
	c := inst.inner.Catalog
	seq := make([]int, len(plan.Steps))
	for i, s := range plan.Steps {
		idx, ok := c.Index(s.ID)
		if !ok {
			return nil, fmt.Errorf("rlplanner: plan item %q not in instance %s", s.ID, inst.Name())
		}
		seq[i] = idx
	}
	return eval.RenderExplanation(eval.Explain(inst.inner, inst.inner.Hard, seq)), nil
}
