// Package baselines_test exercises the three §IV-A2 baselines together so
// their relative behaviour — gold ≥ RL-Planner ≥ EDA ≥ OMEGA — can be
// asserted in one place.
package baselines_test

import (
	"context"
	"testing"

	"github.com/rlplanner/rlplanner/internal/baselines/eda"
	"github.com/rlplanner/rlplanner/internal/baselines/gold"
	"github.com/rlplanner/rlplanner/internal/baselines/omega"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/eval"
	"github.com/rlplanner/rlplanner/internal/prereq"
)

func TestGoldDeterministic(t *testing.T) {
	inst := univ.Univ1DSCT()
	a, err := gold.Plan(inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gold.Plan(inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("gold plans differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("gold plans differ")
		}
	}
}

func TestEDAPlanLengthAndValidity(t *testing.T) {
	inst := univ.Univ1DSCT()
	env, err := core.BuildEnv(inst, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eda.Plan(env, inst.StartIndex(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 10 {
		t.Fatalf("EDA plan length = %d, want 10", len(plan))
	}
	seen := map[int]bool{}
	for _, i := range plan {
		if seen[i] {
			t.Fatal("duplicate in EDA plan")
		}
		seen[i] = true
	}
}

func TestEDAAveragePlan(t *testing.T) {
	inst := univ.Univ1DSCT()
	env, _ := core.BuildEnv(inst, core.Options{Seed: 1})
	plans, err := eda.AveragePlan(env, inst.StartIndex(), 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 5 {
		t.Fatalf("got %d plans", len(plans))
	}
	if _, err := eda.AveragePlan(env, 0, 0, 1); err == nil {
		t.Fatal("zero runs accepted")
	}
}

func TestOmegaCoCoverage(t *testing.T) {
	inst := univ.Univ1DSCT()
	m := omega.CoCoverage(inst.Catalog)
	n := inst.Catalog.Len()
	if len(m) != n || len(m[0]) != n {
		t.Fatalf("matrix shape %dx%d", len(m), len(m[0]))
	}
	// Diagonal = |T_i|; symmetric; superadditive vs singleton.
	for i := 0; i < n; i++ {
		ti := inst.Catalog.At(i).Topics.Count()
		if m[i][i] != ti {
			t.Fatalf("M[%d][%d] = %d, want |T_i| = %d", i, i, m[i][i], ti)
		}
		for j := 0; j < n; j++ {
			if m[i][j] != m[j][i] {
				t.Fatalf("matrix asymmetric at %d,%d", i, j)
			}
			if m[i][j] < ti {
				t.Fatalf("union smaller than part at %d,%d", i, j)
			}
		}
	}
}

func TestOmegaTopologicalOrder(t *testing.T) {
	inst := univ.Univ1DSCT()
	order := omega.TopologicalOrder(inst.Catalog)
	if len(order) != inst.Catalog.Len() {
		t.Fatalf("order covers %d of %d items", len(order), inst.Catalog.Len())
	}
	pos := make(map[int]int, len(order))
	for p, idx := range order {
		pos[idx] = p
	}
	// Every antecedent precedes its dependents.
	for i := 0; i < inst.Catalog.Len(); i++ {
		m := inst.Catalog.At(i)
		if m.Prereq == nil {
			continue
		}
		// The topological order is built over all reference edges, so
		// every referenced antecedent precedes its dependent.
		for _, ref := range prereq.ReferencedItems(m.Prereq) {
			j, ok := inst.Catalog.Index(ref)
			if !ok {
				t.Fatalf("%s references unknown %s", m.ID, ref)
			}
			if pos[j] > pos[i] {
				t.Fatalf("%s ordered before its antecedent %s", m.ID, ref)
			}
		}
	}
}

func TestOmegaPlanOftenViolatesConstraints(t *testing.T) {
	// The paper's central negative result: adapted OMEGA fails the TPP
	// hard constraints most of the time (0 scores in Figure 1).
	violations := 0
	instances := append(univ.Univ1All(), univ.Univ2DS())
	for _, inst := range instances {
		env, err := core.BuildEnv(inst, core.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := omega.Plan(env, inst.StartIndex())
		if err != nil {
			t.Fatal(err)
		}
		if len(plan) == 0 {
			t.Fatalf("%s: empty OMEGA plan", inst.Name)
		}
		if eval.Score(inst, plan) == 0 {
			violations++
		}
	}
	if violations == 0 {
		t.Fatal("OMEGA satisfied constraints everywhere — adaptation too strong")
	}
}

func TestOmegaTripPlan(t *testing.T) {
	inst := trip.NYC().Instance
	env, err := core.BuildEnv(inst, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := omega.Plan(env, inst.StartIndex())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) == 0 {
		t.Fatal("empty trip plan")
	}
	// Time budget is enforced by the environment even for OMEGA.
	if inst.Catalog.TotalCredits(plan) > inst.Hard.Credits {
		t.Fatal("OMEGA exceeded the environment's time budget")
	}
}

func TestRelativeOrderingOnDSCT(t *testing.T) {
	// Figure 1's qualitative shape on one instance: gold ≥ RL-Planner,
	// RL-Planner > 0, and OMEGA ≤ EDA ≤ RL-Planner.
	inst := univ.Univ1DSCT()
	p, err := engine.Train(context.Background(), "sarsa", inst, core.Options{Episodes: 300, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	env := p.(engine.ValuePolicy).Env()
	rlPlan, err := p.Recommend(engine.DefaultStart)
	if err != nil {
		t.Fatal(err)
	}
	rl := eval.Score(inst, rlPlan)

	goldPlan, err := gold.Plan(inst)
	if err != nil {
		t.Fatal(err)
	}
	gd := eval.Score(inst, goldPlan)

	edaPlans, err := eda.AveragePlan(env, inst.StartIndex(), 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	var ed float64
	for _, pl := range edaPlans {
		ed += eval.Score(inst, pl)
	}
	ed /= float64(len(edaPlans))

	omegaPlan, err := omega.Plan(env, inst.StartIndex())
	if err != nil {
		t.Fatal(err)
	}
	om := eval.Score(inst, omegaPlan)

	t.Logf("gold=%.2f rl=%.2f eda=%.2f omega=%.2f", gd, rl, ed, om)
	if rl <= 0 {
		t.Fatal("RL-Planner scored 0")
	}
	if gd < rl {
		t.Fatalf("gold %v below RL %v", gd, rl)
	}
	if om > rl {
		t.Fatalf("OMEGA %v above RL %v", om, rl)
	}
}

func TestOmegaCoVisitMatrix(t *testing.T) {
	sequences := [][]int{
		{0, 1, 2},
		{0, 2},
		{2, 0},
		{9, 0}, // out-of-range index skipped
	}
	m := omega.CoVisit(3, sequences)
	if m[0][1] != 1 || m[0][2] != 2 || m[1][2] != 1 {
		t.Fatalf("co-visit counts wrong: %v", m)
	}
	if m[2][0] != 1 {
		t.Fatalf("reverse order not counted: %v", m)
	}
	if m[1][0] != 0 {
		t.Fatalf("unobserved pair counted: %v", m)
	}
}

func TestOmegaPlanUtilityCoVisitOnTrips(t *testing.T) {
	// The original-OMEGA variant runs on the Flickr itineraries.
	city := trip.NYC()
	inst := city.Instance
	env, err := core.BuildEnv(inst, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]int, len(city.Itineraries))
	for i, it := range city.Itineraries {
		seqs[i] = []int(it)
	}
	m := omega.CoVisit(inst.Catalog.Len(), seqs)
	plan, err := omega.PlanUtility(env, inst.StartIndex(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) == 0 {
		t.Fatal("empty co-visit OMEGA plan")
	}
	// The environment still caps the time budget.
	if inst.Catalog.TotalCredits(plan) > inst.Hard.Credits {
		t.Fatal("co-visit OMEGA exceeded the time budget")
	}
}
