package session_test

import (
	"context"
	"testing"

	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/sarsa"
	"github.com/rlplanner/rlplanner/internal/session"
)

func learned(t *testing.T) (engine.ValuePolicy, int) {
	t.Helper()
	inst := univ.Univ1DSCT()
	p, err := engine.Train(context.Background(), "sarsa", inst, core.Options{Episodes: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p.(engine.ValuePolicy), inst.StartIndex()
}

func TestSessionSuggestAcceptComplete(t *testing.T) {
	p, start := learned(t)
	s, err := session.New(p.Env(), p.Values(), start, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Done() {
		t.Fatal("fresh session done")
	}
	if got := s.PlanIDs(); len(got) != 1 || got[0] != "CS 675" {
		t.Fatalf("initial plan = %v", got)
	}

	sug := s.Suggestions()
	if len(sug) == 0 || len(sug) > 3 {
		t.Fatalf("suggestions = %d", len(sug))
	}
	for i := 1; i < len(sug); i++ {
		if sug[i-1].Tier > sug[i].Tier {
			t.Fatalf("suggestions out of tier order: %+v", sug)
		}
	}
	if err := s.Accept(sug[0].ID); err != nil {
		t.Fatal(err)
	}
	if len(s.Plan()) != 2 {
		t.Fatalf("plan length after accept = %d", len(s.Plan()))
	}

	full := s.AutoComplete()
	if len(full) != 10 {
		t.Fatalf("auto-completed plan = %d items", len(full))
	}
	if !s.Done() {
		t.Fatal("session not done after auto-complete")
	}
	if !constraints.Satisfies(p.Env().Catalog(), full, p.Env().Hard()) {
		t.Fatalf("interactive plan violates constraints: %v",
			p.Env().Catalog().SequenceIDs(full))
	}
}

func TestSessionRejectIsHonored(t *testing.T) {
	p, start := learned(t)
	s, _ := session.New(p.Env(), p.Values(), start, 5)

	first := s.Suggestions()
	if len(first) == 0 {
		t.Fatal("no suggestions")
	}
	veto := first[0].ID
	if err := s.Reject(veto); err != nil {
		t.Fatal(err)
	}
	for _, sug := range s.Suggestions() {
		if sug.ID == veto {
			t.Fatalf("rejected %q still suggested", veto)
		}
	}
	full := s.AutoComplete()
	for _, idx := range full {
		if p.Env().Catalog().At(idx).ID == veto {
			t.Fatalf("rejected %q in auto-completed plan", veto)
		}
	}
	if got := s.Rejected(); len(got) != 1 || got[0] != veto {
		t.Fatalf("Rejected() = %v", got)
	}
}

func TestSessionErrors(t *testing.T) {
	p, start := learned(t)
	if _, err := session.New(p.Env(), nil, start, 3); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := session.New(p.Env(), &sarsa.Policy{}, start, 3); err == nil {
		t.Fatal("empty policy accepted")
	}
	if _, err := session.New(p.Env(), p.Values(), -1, 3); err == nil {
		t.Fatal("bad start accepted")
	}

	s, _ := session.New(p.Env(), p.Values(), start, 3)
	if err := s.Accept("GHOST"); err == nil {
		t.Fatal("unknown accept allowed")
	}
	if err := s.Reject("GHOST"); err == nil {
		t.Fatal("unknown reject allowed")
	}
	// Accepting the start item again must fail.
	if err := s.Accept("CS 675"); err == nil {
		t.Fatal("duplicate accept allowed")
	}
	// After completion, accepts fail and suggestions dry up.
	s.AutoComplete()
	if err := s.Accept("CS 683"); err == nil {
		t.Fatal("accept after completion allowed")
	}
	if sug := s.Suggestions(); len(sug) != 0 {
		t.Fatalf("suggestions after completion: %v", sug)
	}
}

func TestSessionDefaultK(t *testing.T) {
	p, start := learned(t)
	s, err := session.New(p.Env(), p.Values(), start, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Suggestions()); got != 3 {
		t.Fatalf("default k suggestions = %d, want 3", got)
	}
}

func TestSessionManualPlanScores(t *testing.T) {
	// A user who always follows the first suggestion reproduces the
	// guided walk's plan exactly.
	p, start := learned(t)
	s, _ := session.New(p.Env(), p.Values(), start, 1)
	for !s.Done() {
		sug := s.Suggestions()
		if len(sug) == 0 {
			break
		}
		if err := s.Accept(sug[0].ID); err != nil {
			t.Fatal(err)
		}
	}
	want, err := p.Recommend(start)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Plan()
	if len(got) != len(want) {
		t.Fatalf("interactive %v vs guided %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("interactive %v vs guided %v", got, want)
		}
	}
}
