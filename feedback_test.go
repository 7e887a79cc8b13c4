package rlplanner

import (
	"context"
	"math"
	"testing"

	"github.com/rlplanner/rlplanner/internal/engine"
)

func TestFeedbackLoopEndToEnd(t *testing.T) {
	inst, _ := InstanceByName("Univ-1 M.S. DS-CT")
	loop, err := NewFeedbackLoop(inst, Options{Episodes: 120}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := loop.Replan(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 10 {
		t.Fatalf("replan = %d steps", len(plan.Steps))
	}

	d0, b0, w10, w20 := loop.Weights()
	if math.Abs(d0+b0-1) > 1e-9 || math.Abs(w10+w20-1) > 1e-9 {
		t.Fatalf("weights not normalized: %v %v %v %v", d0, b0, w10, w20)
	}

	// All three signal kinds fold in.
	if err := loop.ObserveBinary(plan, false); err != nil {
		t.Fatal(err)
	}
	if err := loop.ObserveRating(plan, 2); err != nil {
		t.Fatal(err)
	}
	if err := loop.ObserveDistribution(plan, []float64{0.5, 0.3, 0.2, 0, 0}); err != nil {
		t.Fatal(err)
	}
	d1, b1, _, _ := loop.Weights()
	if math.Abs(d1+b1-1) > 1e-9 {
		t.Fatalf("adapted weights not normalized: %v %v", d1, b1)
	}
	if d1 == d0 {
		t.Fatal("negative feedback left δ untouched")
	}

	// Replanning under adapted weights still produces a full valid plan.
	plan2, err := loop.Replan(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.Steps) != 10 {
		t.Fatalf("adapted replan = %d steps", len(plan2.Steps))
	}
}

func TestFeedbackLoopTripDefaultsAndErrors(t *testing.T) {
	paris, _ := InstanceByName("Paris")
	loop, err := NewFeedbackLoop(paris, Options{Episodes: 80}, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := loop.Replan(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := loop.ObserveRating(plan, 4); err != nil {
		t.Fatal(err)
	}

	// Unknown plan items are rejected.
	bad := &Plan{Steps: []PlanStep{{ID: "GHOST"}}}
	if err := loop.ObserveBinary(bad, true); err == nil {
		t.Fatal("unknown item accepted")
	}
	// Invalid construction.
	if _, err := NewFeedbackLoop(nil, Options{}, 0.3); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := NewFeedbackLoop(paris, Options{}, 2); err == nil {
		t.Fatal("rate > 1 accepted")
	}
}

func TestSessionAcceptAndState(t *testing.T) {
	inst, _ := InstanceByName("Univ-1 M.S. DS-CT")
	p, err := Train(context.Background(), inst, "sarsa", Options{Episodes: 150, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Done() {
		t.Fatal("fresh session done")
	}
	if ids := s.PlanIDs(); len(ids) != 1 {
		t.Fatalf("initial ids = %v", ids)
	}
	sug := s.Suggestions()
	if len(sug) == 0 {
		t.Fatal("no suggestions")
	}
	if err := s.Accept(sug[0].ID); err != nil {
		t.Fatal(err)
	}
	cur := s.Current()
	if len(cur.Steps) != 2 {
		t.Fatalf("current = %d steps", len(cur.Steps))
	}
	if cur.SatisfiesConstraints {
		t.Fatal("partial 2-step plan cannot satisfy the 10-course program")
	}
}

func TestPlanFromPublicAPI(t *testing.T) {
	inst, _ := InstanceByName("Univ-1 M.S. DS-CT")
	p, err := Train(context.Background(), inst, "sarsa", Options{Episodes: 100, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Recommend("CS 636")
	if err != nil {
		t.Fatal(err)
	}
	if plan.IDs()[0] != "CS 636" {
		t.Fatalf("Recommend start = %s", plan.IDs()[0])
	}
	if _, err := p.Recommend("GHOST"); err == nil {
		t.Fatal("unknown start accepted")
	}
}

// TestReplanUsesTrainWorkers pins Options.TrainWorkers reaching the
// feedback loop's retraining runs: with workers configured the parallel
// schedule's merge protocol must actually execute (MergeBatches > 0),
// and without workers the sequential Algorithm 1 loop runs (0 batches).
func TestReplanUsesTrainWorkers(t *testing.T) {
	inst, _ := InstanceByName("Univ-1 M.S. DS-CT")
	parallel, err := NewFeedbackLoop(inst, Options{Episodes: 80, Seed: 9, TrainWorkers: 2}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if parallel.LastReplan() != (ReplanStats{}) {
		t.Fatal("stats before any Replan should be zero")
	}
	if _, err := parallel.Replan(7); err != nil {
		t.Fatal(err)
	}
	stats := parallel.LastReplan()
	if stats.TrainWorkers != 2 || stats.Episodes != 80 {
		t.Fatalf("parallel replan stats = %+v", stats)
	}
	if stats.MergeBatches == 0 {
		t.Fatal("TrainWorkers=2 replan ran the sequential schedule")
	}

	sequential, err := NewFeedbackLoop(inst, Options{Episodes: 80, Seed: 9}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sequential.Replan(7); err != nil {
		t.Fatal(err)
	}
	if got := sequential.LastReplan(); got.MergeBatches != 0 || got.TrainWorkers != 0 {
		t.Fatalf("sequential replan stats = %+v", got)
	}
}

// TestNewFeedbackLoopMakesNoEnvLookup: the loop needs only the resolved
// reward configuration, so constructing one neither looks up nor builds
// an environment.
func TestNewFeedbackLoopMakesNoEnvLookup(t *testing.T) {
	inst, err := InstanceByName("Paris")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 5, TimeLimitHours: 4.5}
	before := engine.EnvCacheStats()
	if _, err := NewFeedbackLoop(inst, opts, 0.5); err != nil {
		t.Fatal(err)
	}
	after := engine.EnvCacheStats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 0 || misses != 0 {
		t.Errorf("NewFeedbackLoop: %d env cache hits and %d misses, want none", hits, misses)
	}
}
