package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/rlplanner/rlplanner/internal/baselines/gold"
	"github.com/rlplanner/rlplanner/internal/bitset"
	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/prereq"
	"github.com/rlplanner/rlplanner/internal/seqsim"
	"github.com/rlplanner/rlplanner/internal/topics"
)

// evaluateReference is EvaluateWith in its vocabulary-wide form: the
// plan's topics unioned into a bitset as wide as the vocabulary and
// intersected with T_ideal, and duplicates and antecedents looked up in
// maps (checkReference, orderingValidityReference). EvaluateWith must
// return the same Detail, bit for bit.
func evaluateReference(inst *dataset.Instance, hard constraints.Hard, plan []int) Detail {
	var d Detail
	if len(plan) == 0 {
		return d
	}
	c := inst.Catalog
	d.Violations = checkReference(c, plan, hard)
	d.Interleave = seqsim.MaxSim(c.AppendTypes(nil, plan), inst.Soft.Template)

	covered := bitset.New(c.Vocabulary().Len())
	for _, idx := range plan {
		covered.UnionInPlace(c.At(idx).Topics)
	}
	d.Coverage = topics.CoverageRatio(covered, inst.Soft.Ideal)

	if inst.Kind == dataset.TripPlanning {
		var sum float64
		for _, idx := range plan {
			sum += c.At(idx).Popularity
		}
		d.MeanPopularity = sum / float64(len(plan))
	}

	d.OrderingValid = orderingValidityReference(inst, hard, plan)

	if len(d.Violations) == 0 {
		if inst.Kind == dataset.TripPlanning {
			d.Score = d.MeanPopularity
		} else {
			d.Score = d.Interleave
		}
	}
	return d
}

// checkReference is constraints.Check with a map for duplicates and a
// map of positions for antecedents, and the path length always measured.
func checkReference(c *item.Catalog, seq []int, h constraints.Hard) []constraints.Violation {
	var out []constraints.Violation

	seen := make(map[int]int, len(seq))
	for pos, idx := range seq {
		if first, dup := seen[idx]; dup {
			out = append(out, constraints.Violation{
				Kind: constraints.ViolationDuplicate, Pos: pos,
				Detail: fmt.Sprintf("%s already at position %d", c.At(idx).ID, first),
			})
		} else {
			seen[idx] = pos
		}
	}

	total := c.TotalCredits(seq)
	switch h.CreditMode {
	case constraints.MinCredits:
		if total < h.Credits {
			out = append(out, constraints.Violation{
				Kind: constraints.ViolationCredits, Pos: -1,
				Detail: fmt.Sprintf("total %g < required %g", total, h.Credits),
			})
		}
	case constraints.MaxCredits:
		if total > h.Credits {
			out = append(out, constraints.Violation{
				Kind: constraints.ViolationCredits, Pos: -1,
				Detail: fmt.Sprintf("total %g > budget %g", total, h.Credits),
			})
		}
	}

	if want := h.Length(); want > 0 && len(seq) != want {
		out = append(out, constraints.Violation{
			Kind: constraints.ViolationLength, Pos: -1,
			Detail: fmt.Sprintf("plan has %d items, want %d", len(seq), want),
		})
	}
	var primaries int
	for _, idx := range seq {
		if c.At(idx).Type == item.Primary {
			primaries++
		}
	}
	if primaries < h.Primary {
		out = append(out, constraints.Violation{
			Kind: constraints.ViolationSplit, Pos: -1,
			Detail: fmt.Sprintf("%d primary items, want at least %d", primaries, h.Primary),
		})
	}

	positions := make(map[string]int, len(seq))
	for pos, idx := range seq {
		m := c.At(idx)
		if !satisfiedMap(m.Prereq, pos, positions, h.Gap) {
			out = append(out, constraints.Violation{
				Kind: constraints.ViolationGap, Pos: pos,
				Detail: fmt.Sprintf("%s requires %s within gap %d", m.ID, prereq.Format(m.Prereq), h.Gap),
			})
		}
		positions[m.ID] = pos
	}

	if h.ThemeGap {
		for pos := 1; pos < len(seq); pos++ {
			prev, cur := c.At(seq[pos-1]), c.At(seq[pos])
			if cur.Category != item.NoCategory && cur.Category == prev.Category {
				out = append(out, constraints.Violation{
					Kind: constraints.ViolationThemeGap, Pos: pos,
					Detail: fmt.Sprintf("%s follows %s with the same theme", cur.ID, prev.ID),
				})
			}
		}
	}

	if h.MaxDistanceKm > 0 {
		pts := make([]geo.Point, len(seq))
		for i, idx := range seq {
			m := c.At(idx)
			pts[i] = geo.Point{Lat: m.Lat, Lon: m.Lon}
		}
		if d := geo.PathLength(pts); d > h.MaxDistanceKm {
			out = append(out, constraints.Violation{
				Kind: constraints.ViolationDistance, Pos: -1,
				Detail: fmt.Sprintf("path %.2f km exceeds threshold %g km", d, h.MaxDistanceKm),
			})
		}
	}

	return out
}

// satisfiedMap is the map form of prereq.SatisfiedAfter the references
// look antecedents up with: e holds for an item at position pos when
// positions (id → latest position) places every AND branch's antecedent,
// or some OR branch's, at least gap earlier.
func satisfiedMap(e prereq.Expr, pos int, positions map[string]int, gap int) bool {
	switch x := e.(type) {
	case prereq.Ref:
		p, ok := positions[string(x)]
		return ok && pos-p >= gap
	case prereq.And:
		for _, sub := range x {
			if !satisfiedMap(sub, pos, positions, gap) {
				return false
			}
		}
		return true
	case prereq.Or:
		for _, sub := range x {
			if satisfiedMap(sub, pos, positions, gap) {
				return true
			}
		}
		return len(x) == 0
	}
	return true
}

// orderingValidityReference is orderingValidity over a position map.
func orderingValidityReference(inst *dataset.Instance, hard constraints.Hard, plan []int) float64 {
	if len(plan) == 0 {
		return 0
	}
	c := inst.Catalog
	positions := make(map[string]int, len(plan))
	valid := 0
	for pos, idx := range plan {
		m := c.At(idx)
		ok := satisfiedMap(m.Prereq, pos, positions, hard.Gap)
		if ok && hard.ThemeGap && pos > 0 {
			prev := c.At(plan[pos-1])
			if m.Category >= 0 && m.Category == prev.Category {
				ok = false
			}
		}
		if ok {
			valid++
		}
		positions[m.ID] = pos
	}
	return float64(valid) / float64(len(plan))
}

// sameDetail reports how got differs from want: every float by its
// bits, the violations by deep equality. It returns "" when they agree.
func sameDetail(got, want Detail) string {
	floats := []struct {
		name string
		g, w float64
	}{
		{"Score", got.Score, want.Score},
		{"Interleave", got.Interleave, want.Interleave},
		{"Coverage", got.Coverage, want.Coverage},
		{"MeanPopularity", got.MeanPopularity, want.MeanPopularity},
		{"OrderingValid", got.OrderingValid, want.OrderingValid},
	}
	for _, f := range floats {
		if math.Float64bits(f.g) != math.Float64bits(f.w) {
			return fmt.Sprintf("%s = %v, want %v", f.name, f.g, f.w)
		}
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		return fmt.Sprintf("Violations = %v, want %v", got.Violations, want.Violations)
	}
	return ""
}

// referencePlans returns the plans a catalog is scored on: the empty
// plan; random plans of the target length, shorter, longer, and longer
// than constraints.PlanBuf (so the checkers index the plan's ids instead
// of scanning them), with and without repeated items; and the plans a
// short SARSA run serves from random starts (served), which mostly
// satisfy P_hard.
func referencePlans(t *testing.T, inst *dataset.Instance, rng *rand.Rand, random, served int) [][]int {
	t.Helper()
	n := inst.Catalog.Len()
	length := max(inst.Hard.Length(), 2)
	plans := [][]int{nil, {}}
	for i := 0; i < random; i++ {
		l := length
		switch i % 4 {
		case 1:
			l = 1 + rng.Intn(length)
		case 2:
			l = length + 1 + rng.Intn(length)
		case 3:
			l = constraints.PlanBuf + 1 + rng.Intn(2*constraints.PlanBuf)
		}
		plan := make([]int, l)
		if i%3 == 0 {
			for p := range plan {
				plan[p] = rng.Intn(n)
			}
			if l > 1 {
				plan[rng.Intn(l)] = plan[rng.Intn(l)]
			}
		} else {
			copy(plan, rng.Perm(n)[:min(l, n)])
			plan = plan[:min(l, n)]
		}
		plans = append(plans, plan)
	}
	if served == 0 {
		return plans
	}
	pol, err := engine.Train(context.Background(), "sarsa", inst, core.Options{Episodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < served; i++ {
		start := engine.DefaultStart
		if i > 0 {
			start = rng.Intn(n)
		}
		plan, err := pol.Recommend(start)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	if g, err := gold.Plan(inst); err == nil {
		plans = append(plans, g)
	}
	return plans
}

// TestEvaluateMatchesReference scores random and served plans with
// EvaluateWith and with evaluateReference and requires the same Detail:
// on the six built-ins, NYC under a 1 km budget (so the distance check
// binds), synthetic catalogs of 1 024 items with and without
// coordinates and of 8 192, and, without -short, one of 100 000.
func TestEvaluateMatchesReference(t *testing.T) {
	type tc struct {
		name string
		inst func() (*dataset.Instance, error)
		// hard edits the constraints the plans are scored under.
		hard           func(*constraints.Hard)
		random, served int
		long           bool
	}
	builtin := func(f func() *dataset.Instance) func() (*dataset.Instance, error) {
		return func() (*dataset.Instance, error) { return f(), nil }
	}
	synthetic := func(items int, geo bool) func() (*dataset.Instance, error) {
		return func() (*dataset.Instance, error) {
			return synth.Generate(synth.Params{Name: fmt.Sprint("synthetic-", items), Items: items, Geo: geo, Seed: int64(items)})
		}
	}
	nyc := func() *dataset.Instance { return trip.NYC().Instance }
	cases := []tc{
		{name: "Univ-1-DS-CT", inst: builtin(univ.Univ1DSCT), random: 3000, served: 16},
		{name: "Univ-1-Cyber", inst: builtin(univ.Univ1Cyber), random: 3000, served: 16},
		{name: "Univ-1-CS", inst: builtin(univ.Univ1CS), random: 3000, served: 16},
		{name: "Univ-2-DS", inst: builtin(univ.Univ2DS), random: 3000, served: 16},
		{name: "NYC", inst: builtin(nyc), random: 3000, served: 16},
		{name: "Paris", inst: builtin(func() *dataset.Instance { return trip.Paris().Instance }), random: 3000, served: 16},
		{name: "NYC-1km", inst: builtin(nyc), hard: func(h *constraints.Hard) { h.MaxDistanceKm = 1 }, random: 3000, served: 16},
		{name: "synthetic-1024", inst: synthetic(1024, false), random: 3000, served: 16},
		{name: "synthetic-1024-geo", inst: synthetic(1024, true), random: 3000, served: 16},
		{name: "synthetic-8192", inst: synthetic(8192, true), random: 3000, served: 16},
		{name: "synthetic-100000", inst: synthetic(100000, false), random: 300, long: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("100 000-item catalog; skipped under -short")
			}
			inst, err := c.inst()
			if err != nil {
				t.Fatal(err)
			}
			hard := inst.Hard
			if c.hard != nil {
				c.hard(&hard)
			}
			rng := rand.New(rand.NewSource(int64(inst.Catalog.Len())))
			valid, distance := 0, 0
			for i, plan := range referencePlans(t, inst, rng, c.random, c.served) {
				want := evaluateReference(inst, hard, plan)
				if diff := sameDetail(EvaluateWith(inst, hard, plan), want); diff != "" {
					t.Fatalf("plan %d %v: %s", i, plan, diff)
				}
				if len(want.Violations) == 0 && len(plan) > 0 {
					valid++
				}
				for _, v := range want.Violations {
					if v.Kind == constraints.ViolationDistance {
						distance++
						break
					}
				}
			}
			if c.served > 0 && valid == 0 {
				t.Error("no plan satisfied P_hard, so the valid path went unchecked")
			}
			if c.hard != nil && distance == 0 {
				t.Error("no plan exceeded the distance budget, so the path length went unchecked")
			}
		})
	}
}
