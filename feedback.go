package rlplanner

import (
	"context"
	"fmt"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/eval"
	"github.com/rlplanner/rlplanner/internal/feedback"
)

// FeedbackLoop is the adaptive extension of §VI: it consumes feedback on
// recommended plans — binary useful/not-useful, categorical 1–5 ratings,
// or rating distributions — and adapts the reward weights used for
// subsequent planning rounds.
type FeedbackLoop struct {
	inst *Instance
	opts Options
	loop *feedback.Loop
	last ReplanStats
}

// ReplanStats reports what the most recent Replan's retraining run did —
// the observability that pins Options.TrainWorkers actually reaching the
// retraining schedule (MergeBatches > 0 iff the parallel protocol ran).
type ReplanStats struct {
	// Episodes is the number of learning episodes the retrain completed.
	Episodes int
	// MergeBatches counts the parallel schedule's deterministic merge
	// rounds (0 when the sequential schedule ran).
	MergeBatches int
	// TrainWorkers echoes the worker count the retrain was configured
	// with.
	TrainWorkers int
}

// NewFeedbackLoop starts a loop for the instance. rate controls update
// aggressiveness in (0, 1]; 0 selects the default.
func NewFeedbackLoop(inst *Instance, opts Options, rate float64) (*FeedbackLoop, error) {
	if inst == nil {
		return nil, fmt.Errorf("rlplanner: nil instance")
	}
	// The loop needs only the resolved reward config, not an
	// environment.
	c, err := core.Resolve(inst.inner, opts.toCore())
	if err != nil {
		return nil, err
	}
	planLen := inst.inner.Hard.Length()
	if planLen == 0 {
		planLen = 5 // trips: budget-determined length; 5 is the Example 2 shape
	}
	loop, err := feedback.NewLoop(c.Reward, planLen, rate)
	if err != nil {
		return nil, err
	}
	return &FeedbackLoop{inst: inst, opts: opts, loop: loop}, nil
}

// ObserveBinary records useful / not-useful feedback on a plan.
func (l *FeedbackLoop) ObserveBinary(plan *Plan, useful bool) error {
	return l.observe(plan, feedback.Binary(useful))
}

// ObserveRating records a categorical 1–5 rating of a plan.
func (l *FeedbackLoop) ObserveRating(plan *Plan, rating float64) error {
	return l.observe(plan, feedback.Rating(rating))
}

// ObserveDistribution records a probability distribution over the 1–5
// rating scale (index 0 = rating 1).
func (l *FeedbackLoop) ObserveDistribution(plan *Plan, dist []float64) error {
	return l.observe(plan, feedback.Distribution(dist))
}

func (l *FeedbackLoop) observe(plan *Plan, sig feedback.Signal) error {
	seq, err := l.resolve(plan)
	if err != nil {
		return err
	}
	d := eval.Evaluate(l.inst.inner, seq)
	l.loop.Observe(d, sig)
	return nil
}

func (l *FeedbackLoop) resolve(plan *Plan) ([]int, error) {
	c := l.inst.inner.Catalog
	seq := make([]int, len(plan.Steps))
	for i, s := range plan.Steps {
		idx, ok := c.Index(s.ID)
		if !ok {
			return nil, fmt.Errorf("rlplanner: plan item %q not in instance %s", s.ID, l.inst.Name())
		}
		seq[i] = idx
	}
	return seq, nil
}

// Weights returns the current adapted reward mix (δ, β, w1, w2).
func (l *FeedbackLoop) Weights() (delta, beta, w1, w2 float64) {
	cfg := l.loop.Config()
	return cfg.Delta, cfg.Beta, cfg.Weights.Primary, cfg.Weights.Secondary
}

// Replan learns a fresh policy under the adapted weights and recommends.
// The retraining run inherits every option the loop was built with —
// including Options.TrainWorkers, so fleets that retrain on feedback use
// the same parallel schedule as their initial training (LastReplan
// exposes the run's merge-batch count as evidence).
func (l *FeedbackLoop) Replan(seed int64) (*Plan, error) {
	cfg := l.loop.Config()
	opts := l.opts
	opts.Delta, opts.Beta = cfg.Delta, cfg.Beta
	opts.W1, opts.W2 = cfg.Weights.Primary, cfg.Weights.Secondary
	opts.Seed = seed
	pol, err := Train(context.Background(), l.inst, "sarsa", opts)
	if err != nil {
		return nil, err
	}
	l.last = ReplanStats{
		Episodes:     pol.EpisodesTrained(),
		MergeBatches: engine.MergeBatches(pol.p),
		TrainWorkers: opts.TrainWorkers,
	}
	return pol.Recommend("")
}

// LastReplan returns statistics for the most recent Replan (zero value
// before the first one).
func (l *FeedbackLoop) LastReplan() ReplanStats { return l.last }
