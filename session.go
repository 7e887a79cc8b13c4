package rlplanner

import "github.com/rlplanner/rlplanner/internal/session"

// Suggestion is one proposed next item of an interactive session.
type Suggestion struct {
	// ID identifies the item.
	ID string
	// Valid reports whether the item fully satisfies the reward gates at
	// this position (guided tier 1).
	Valid bool
	// Reward is the immediate Equation 2 reward of taking the item now.
	Reward float64
	// Q is the learned action value from the current state.
	Q float64
}

// Session is an interactive planning dialogue (§IV-F): the planner
// suggests candidates, the user accepts or rejects, and the planner can
// auto-complete the remainder while honoring every rejection.
type Session struct {
	inst *Instance
	s    *session.Session
}

// Suggestions returns the next candidates in preference order.
func (s *Session) Suggestions() []Suggestion {
	ranked := s.s.Suggestions()
	out := make([]Suggestion, len(ranked))
	for i, r := range ranked {
		out[i] = Suggestion{ID: r.ID, Valid: r.Tier == 1, Reward: r.Reward, Q: r.Q}
	}
	return out
}

// Accept adds an item to the plan.
func (s *Session) Accept(id string) error { return s.s.Accept(id) }

// Reject vetoes an item for the rest of the session.
func (s *Session) Reject(id string) error { return s.s.Reject(id) }

// Done reports whether the plan's budget is exhausted.
func (s *Session) Done() bool { return s.s.Done() }

// PlanIDs returns the items chosen so far.
func (s *Session) PlanIDs() []string { return s.s.PlanIDs() }

// AutoComplete finishes the plan with the planner, honoring rejections,
// and returns the evaluated result.
func (s *Session) AutoComplete() *Plan {
	seq := s.s.AutoComplete()
	return newPlan(s.inst, s.inst.inner.Hard, seq)
}

// Current evaluates the plan as it stands (possibly incomplete).
func (s *Session) Current() *Plan {
	return newPlan(s.inst, s.inst.inner.Hard, s.s.Plan())
}
