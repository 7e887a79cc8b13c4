package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/resilience"
)

// TestPartialSarsaMidTraining is the deadline-checkpoint acceptance
// case: SARSA interrupted halfway through its episodes must return a
// usable partial policy — marked degraded, but whose recommendation
// still passes the Theorem-1 hard-constraint validator.
func TestPartialSarsaMidTraining(t *testing.T) {
	inst := univ.Univ1DSCT()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := core.Options{Episodes: 500, Seed: 1}
	opts.OnEpisode = func(i int) {
		if i == 249 { // cancel at 50% of the episode budget
			cancel()
		}
	}
	pol, err := Train(ctx, "sarsa", inst, opts)
	if err != nil {
		t.Fatalf("interrupted training must checkpoint, not fail: %v", err)
	}
	if pol.Degradation() != DegradedPartial {
		t.Fatalf("Degradation = %q, want %q", pol.Degradation(), DegradedPartial)
	}
	vp, ok := pol.(ValuePolicy)
	if !ok {
		t.Fatal("sarsa policy must expose its values")
	}
	if got := len(vp.LearningCurve()); got != 250 {
		t.Fatalf("checkpointed after %d episodes, want 250", got)
	}
	seq, err := pol.Recommend(DefaultStart)
	if err != nil {
		t.Fatalf("partial policy recommend: %v", err)
	}
	if len(seq) == 0 {
		t.Fatal("partial policy produced an empty plan")
	}
	if vs := constraints.Check(inst.Catalog, seq, pol.Hard()); len(vs) != 0 {
		t.Fatalf("partial policy violates hard constraints: %v", vs)
	}
}

// TestTrainBudgetCheckpointsSarsa drives the deadline through
// Options.TrainBudget instead of an explicit cancel: an episode budget
// far beyond the wall-clock budget must yield a partial policy.
func TestTrainBudgetCheckpointsSarsa(t *testing.T) {
	inst := univ.Univ1DSCT()
	opts := core.Options{Episodes: 50_000_000, Seed: 1, TrainBudget: 50 * time.Millisecond}
	start := time.Now()
	pol, err := Train(context.Background(), "sarsa", inst, opts)
	if err != nil {
		t.Fatalf("budgeted training must checkpoint, not fail: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("training ran %s past a 50ms budget", elapsed)
	}
	if pol.Degradation() != DegradedPartial {
		t.Fatalf("Degradation = %q, want %q", pol.Degradation(), DegradedPartial)
	}
	if _, err := pol.Recommend(DefaultStart); err != nil {
		t.Fatalf("partial policy recommend: %v", err)
	}
}

// TestEnginePanicBecomesTypedError pins the registry's isolation
// boundary: a panicking solver surfaces as *resilience.PanicError with
// the op and panic value intact, never as an unwound goroutine.
func TestEnginePanicBecomesTypedError(t *testing.T) {
	Register(Descriptor{
		Name: "panicker",
		Doc:  "test engine that always panics",
		Train: func(context.Context, *dataset.Instance, core.Options) (Policy, error) {
			panic("corrupted Q table")
		},
	})
	t.Cleanup(func() { Unregister("panicker") })

	_, err := Train(context.Background(), "panicker", univ.Univ1DSCT(), core.Options{})
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *resilience.PanicError", err, err)
	}
	if pe.Op != "engine panicker" || pe.Value != "corrupted Q table" {
		t.Fatalf("PanicError = {Op: %q, Value: %v}", pe.Op, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError should carry the recovered stack")
	}
}

// TestUnregisterScopesTestEngines pins the lifecycle the fault-injection
// harness relies on: a test engine (with aliases) can be registered,
// resolved, removed with every alias, and re-registered without
// tripping the duplicate panic. Production names are untouched.
func TestUnregisterScopesTestEngines(t *testing.T) {
	base := Names()
	reg := func() {
		Register(Descriptor{
			Name:    "scoped",
			Aliases: []string{"scoped-alias"},
			Doc:     "test engine",
			Train: func(context.Context, *dataset.Instance, core.Options) (Policy, error) {
				return nil, errors.New("unused")
			},
		})
	}
	reg()
	if got, err := Canonical("scoped-alias"); err != nil || got != "scoped" {
		t.Fatalf("Canonical(scoped-alias) = %q, %v", got, err)
	}

	Unregister("scoped-alias") // removing via an alias removes all names
	if _, err := Canonical("scoped"); err == nil {
		t.Fatal("scoped should be gone after Unregister")
	}
	if _, err := Canonical("scoped-alias"); err == nil {
		t.Fatal("scoped-alias should be gone after Unregister")
	}
	if got := Names(); !reflect.DeepEqual(got, base) {
		t.Fatalf("Names() = %v, want %v", got, base)
	}

	reg() // re-registration after Unregister must not panic
	Unregister("scoped")
	Unregister("scoped") // unknown names are a no-op
}
