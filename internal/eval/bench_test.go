package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/rlplanner/rlplanner/internal/baselines/gold"
	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/prereq"
)

// validPlan draws a plan that satisfies P_hard: it takes items in a
// seeded random order while their antecedents are met and their type's
// share of the split is open.
func validPlan(tb testing.TB, inst *dataset.Instance) []int {
	tb.Helper()
	c, h := inst.Catalog, inst.Hard
	var plan []int
	var placed prereq.Placed
	need := [2]int{h.Primary, h.Secondary}
	for _, idx := range rand.New(rand.NewSource(1)).Perm(c.Len()) {
		m := c.At(idx)
		if need[m.Type] == 0 || !prereq.SatisfiedAfter(m.Prereq, placed, h.Gap) {
			continue
		}
		need[m.Type]--
		plan = append(plan, idx)
		placed = placed.Add(m.ID)
		if len(plan) == h.Length() {
			break
		}
	}
	if vs := constraints.Check(c, plan, h); len(vs) > 0 {
		tb.Fatalf("%s: drawn plan violates P_hard: %v", inst.Name, vs)
	}
	return plan
}

// catalog generates the synthetic geo catalog of the serving benchmark's
// shape with n items.
func catalog(tb testing.TB, n int) *dataset.Instance {
	tb.Helper()
	inst, err := synth.Generate(synth.Params{Name: fmt.Sprint("catalog-", n), Items: n, Geo: true, Seed: int64(n)})
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// TestEvaluateAllocationFree requires EvaluateWith to allocate nothing
// on a plan that satisfies P_hard, on a synthetic 8 192-item catalog and
// on Univ-1 DS-CT's gold plan.
func TestEvaluateAllocationFree(t *testing.T) {
	dsct := univ.Univ1DSCT()
	goldPlan, err := gold.Plan(dsct)
	if err != nil {
		t.Fatal(err)
	}
	inst := catalog(t, 8192)
	for _, c := range []struct {
		inst *dataset.Instance
		plan []int
	}{{inst, validPlan(t, inst)}, {dsct, goldPlan}} {
		if d := EvaluateWith(c.inst, c.inst.Hard, c.plan); len(d.Violations) > 0 {
			t.Fatalf("%s: plan violates P_hard: %v", c.inst.Name, d.Violations)
		}
		if allocs := testing.AllocsPerRun(100, func() { EvaluateWith(c.inst, c.inst.Hard, c.plan) }); allocs != 0 {
			t.Errorf("%s: EvaluateWith allocates %v objects per valid plan, want 0", c.inst.Name, allocs)
		}
	}
}

// BenchmarkEvaluate measures EvaluateWith on a 10-item plan that
// satisfies P_hard, over synthetic geo catalogs of 8 192 and 100 000
// items (vocabularies of 16 384 and 200 000 topics): the score and
// Theorem-1 check the server runs on every plan it serves. Its cost
// should not grow with the catalog.
func BenchmarkEvaluate(b *testing.B) {
	for _, n := range []int{8192, 100000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			inst := catalog(b, n)
			plan := validPlan(b, inst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				EvaluateWith(inst, inst.Hard, plan)
			}
		})
	}
}
