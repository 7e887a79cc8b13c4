package main

import (
	"context"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/rlplanner/rlplanner"
)

// learnedSession trains a small policy and opens a 5-suggestion session
// for the REPL tests, mirroring what main's -interactive path does.
func learnedSession(t *testing.T) *rlplanner.Session {
	t.Helper()
	inst, err := rlplanner.InstanceByName("Univ-1 M.S. DS-CT")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := rlplanner.Train(context.Background(), inst, "sarsa",
		rlplanner.Options{Episodes: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := pol.NewSession(5)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInteractiveLoopFinish(t *testing.T) {
	s := learnedSession(t)
	var out strings.Builder
	plan, err := interactiveLoop(s, strings.NewReader("a 1\nf\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 10 {
		t.Fatalf("finished plan = %d steps", len(plan.Steps))
	}
	if !strings.Contains(out.String(), "plan so far") {
		t.Fatalf("prompt missing:\n%s", out.String())
	}
}

func TestInteractiveLoopQuitKeepsPartial(t *testing.T) {
	s := learnedSession(t)
	var out strings.Builder
	plan, err := interactiveLoop(s, strings.NewReader("a 1\nq\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("partial plan = %d steps, want 2 (start + one accept)", len(plan.Steps))
	}
}

func TestInteractiveLoopRejectsBadInput(t *testing.T) {
	s := learnedSession(t)
	var out strings.Builder
	// Bad number, bad command, reject without number — then finish.
	plan, err := interactiveLoop(s, strings.NewReader("a 99\nzzz\nr\nf\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 10 {
		t.Fatalf("plan = %d steps", len(plan.Steps))
	}
	for _, want := range []string{"bad suggestion number", "commands:", "need a suggestion number"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing feedback %q:\n%s", want, out.String())
		}
	}
}

func TestInteractiveLoopEOF(t *testing.T) {
	s := learnedSession(t)
	var out strings.Builder
	plan, err := interactiveLoop(s, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	// EOF before any command: only the start item.
	if len(plan.Steps) != 1 {
		t.Fatalf("plan = %d steps", len(plan.Steps))
	}
}

// TestSessionRequiresValueEngine pins the -interactive error path:
// procedural engines cannot drive sessions.
func TestSessionRequiresValueEngine(t *testing.T) {
	inst, err := rlplanner.InstanceByName("Univ-1 M.S. DS-CT")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := rlplanner.Train(context.Background(), inst, "gold", rlplanner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pol.NewSession(5); err == nil {
		t.Fatal("NewSession on a gold policy should fail")
	}
}

// TestTransferKeepsThresholds plans NYC → Paris with a 3-hour time
// threshold: the transferred policy must serve Paris under the same
// threshold, as a policy trained on Paris directly does.
func TestTransferKeepsThresholds(t *testing.T) {
	for _, args := range [][]string{
		{"-instance", "NYC", "-transfer", "Paris", "-time", "3"},
		{"-instance", "Paris", "-time", "3"},
	} {
		var out strings.Builder
		if err := run(args, strings.NewReader(""), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.HasPrefix(out.String(), "Plan for Paris") {
			t.Fatalf("%v printed:\n%s", args, out.String())
		}
		m := regexp.MustCompile(`total credits/hours: ([0-9.]+)`).FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("%v: no total hours in:\n%s", args, out.String())
		}
		if hours, err := strconv.ParseFloat(m[1], 64); err != nil || hours > 3 {
			t.Errorf("%v: itinerary takes %s h, want at most 3:\n%s", args, m[1], out.String())
		}
	}
}
