package rlplanner

import (
	"fmt"

	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/feedback"
	"github.com/rlplanner/rlplanner/internal/qtable"
)

// Overlay is a per-user personalization layer over a trained Policy: a
// copy-on-write sparse delta of action values shadowing the policy's
// shared, immutable base. Feedback on served plans writes into the
// overlay only — the base policy continues to serve every other user
// unchanged — and RecommendWithOverlay reads through the layered view
// (overlay first, base second). An overlay with no recorded feedback
// reproduces the policy's plans bit for bit.
//
// Memory per user is bounded (a cell cap with LRU row eviction; see
// MemoryBytes), which is what lets one process carry overlays for a
// large user fleet over a single trained artifact.
//
// An Overlay is not safe for concurrent use; callers (the HTTP per-user
// store) serialize access per user.
type Overlay struct {
	pol *Policy
	o   *qtable.Overlay
}

// NewOverlay creates an empty personalization overlay for the policy,
// storing at most maxCells shadowed action values (≤ 0 selects the
// qtable.DefaultOverlayCells default). Only value-based policies
// (sarsa, qlearning, valueiter) can be layered; baseline engines carry
// no action values and return an error.
func (p *Policy) NewOverlay(maxCells int) (*Overlay, error) {
	vp, ok := p.p.(engine.ValuePolicy)
	if !ok {
		return nil, fmt.Errorf("rlplanner: engine %s has no action values to personalize", p.Engine())
	}
	return &Overlay{pol: p, o: qtable.NewOverlay(vp.BaseReader(), maxCells)}, nil
}

// RecommendWithOverlay produces a plan reading action values through
// the user's overlay ("" startID uses the trained start). A nil overlay
// — or one with no recorded feedback — serves exactly Recommend.
func (p *Policy) RecommendWithOverlay(startID string, ov *Overlay) (*Plan, error) {
	if ov == nil {
		return p.Recommend(startID)
	}
	if ov.pol != p {
		return nil, fmt.Errorf("rlplanner: overlay belongs to a different policy")
	}
	vp, ok := p.p.(engine.ValuePolicy)
	if !ok {
		return nil, fmt.Errorf("rlplanner: engine %s has no action values to personalize", p.Engine())
	}
	start := engine.DefaultStart
	if startID != "" {
		idx, ok := p.inst.inner.Catalog.Index(startID)
		if !ok {
			return nil, fmt.Errorf("rlplanner: unknown item %q", startID)
		}
		start = idx
	}
	seq, err := vp.RecommendOver(start, ov.o)
	if err != nil {
		return nil, err
	}
	return newPlan(p.inst, p.p.Hard(), seq), nil
}

// feedbackSig resolves the plan's item indices and applies the signal
// to the overlay's transition values.
func (ov *Overlay) observe(plan *Plan, sig feedback.Signal, rate float64) (int, error) {
	if plan == nil {
		return 0, fmt.Errorf("rlplanner: nil plan")
	}
	c := ov.pol.inst.inner.Catalog
	seq := make([]int, len(plan.Steps))
	for i, s := range plan.Steps {
		idx, ok := c.Index(s.ID)
		if !ok {
			return 0, fmt.Errorf("rlplanner: plan item %q not in instance %s", s.ID, ov.pol.inst.Name())
		}
		seq[i] = idx
	}
	return feedback.ApplyToOverlay(ov.o, seq, sig, rate), nil
}

// ObserveBinary folds useful/not-useful feedback on a served plan into
// the overlay (rate ≤ 0 selects the default aggressiveness). It returns
// the number of plan transitions whose values were adjusted.
func (ov *Overlay) ObserveBinary(plan *Plan, useful bool, rate float64) (int, error) {
	return ov.observe(plan, feedback.Binary(useful), rate)
}

// ObserveRating folds a categorical 1–5 rating into the overlay. A
// neutral rating (3) writes nothing.
func (ov *Overlay) ObserveRating(plan *Plan, rating float64, rate float64) (int, error) {
	return ov.observe(plan, feedback.Rating(rating), rate)
}

// For reports whether the overlay personalizes exactly p. Overlays are
// bound to the policy artifact they were created from; after that
// artifact is evicted and retrained, the stale overlay must be replaced,
// not applied to the new one.
func (ov *Overlay) For(p *Policy) bool { return ov.pol == p }

// MemoryBytes estimates the overlay's resident memory.
func (ov *Overlay) MemoryBytes() int { return ov.o.SizeBytes() }

// Cells returns the number of personalized action values stored.
func (ov *Overlay) Cells() int { return ov.o.Cells() }

// Evictions returns how many rows the overlay's memory bound evicted.
func (ov *Overlay) Evictions() uint64 { return ov.o.Evictions() }

// Reset drops all personalization, returning the overlay to serving the
// base policy's plans exactly.
func (ov *Overlay) Reset() { ov.o.Reset() }
