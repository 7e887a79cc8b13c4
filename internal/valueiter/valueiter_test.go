package valueiter_test

import (
	"testing"

	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/eval"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/valueiter"
)

func dsctEnv(t *testing.T) *mdp.Env {
	t.Helper()
	env, err := core.BuildEnv(univ.Univ1DSCT(), core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestSolveConverges(t *testing.T) {
	env := dsctEnv(t)
	res, err := valueiter.Solve(env, valueiter.Config{Gamma: 0.95, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations <= 0 || res.Iterations >= 1000 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	if res.Residual >= 1e-6 {
		t.Fatalf("residual = %v, did not converge", res.Residual)
	}
	if res.Policy.Q.Size() != env.NumItems() {
		t.Fatalf("policy size = %d", res.Policy.Q.Size())
	}
	if res.Policy.Q.MaxAbs() == 0 {
		t.Fatal("value iteration produced an all-zero policy")
	}
}

func TestSolvedPolicyPlans(t *testing.T) {
	// The extracted policy plugs into the same recommendation walks.
	inst := univ.Univ1DSCT()
	env := dsctEnv(t)
	res, err := valueiter.Solve(env, valueiter.Config{Gamma: 0.95, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := res.Policy.RecommendGuided(env, inst.StartIndex())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 10 {
		t.Fatalf("plan length = %d", len(plan))
	}
	if !constraints.Satisfies(inst.Catalog, plan, inst.Hard) {
		t.Fatalf("value-iteration plan violates constraints: %v",
			inst.Catalog.SequenceIDs(plan))
	}
	if eval.Score(inst, plan) <= 0 {
		t.Fatal("value-iteration plan scored 0")
	}
}

func TestSolveValidation(t *testing.T) {
	env := dsctEnv(t)
	if _, err := valueiter.Solve(env, valueiter.Config{Gamma: 1}); err == nil {
		t.Fatal("γ = 1 accepted (divergent)")
	}
	if _, err := valueiter.Solve(env, valueiter.Config{Gamma: -0.1}); err == nil {
		t.Fatal("negative γ accepted")
	}
}

func TestSolveDeterministicPerSeed(t *testing.T) {
	env := dsctEnv(t)
	a, err := valueiter.Solve(env, valueiter.Config{Gamma: 0.9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := valueiter.Solve(env, valueiter.Config{Gamma: 0.9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := a.Policy.Q.Size()
	for s := 0; s < n; s++ {
		for e := 0; e < n; e++ {
			if a.Policy.Q.Get(s, e) != b.Policy.Q.Get(s, e) {
				t.Fatal("nondeterministic value iteration")
			}
		}
	}
}

func TestLowerGammaConvergesFaster(t *testing.T) {
	// Contraction factor γ governs convergence speed: γ = 0.5 must need
	// no more sweeps than γ = 0.99.
	env := dsctEnv(t)
	fast, err := valueiter.Solve(env, valueiter.Config{Gamma: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := valueiter.Solve(env, valueiter.Config{Gamma: 0.99, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Iterations > slow.Iterations {
		t.Fatalf("γ=0.5 took %d sweeps vs γ=0.99's %d", fast.Iterations, slow.Iterations)
	}
}
