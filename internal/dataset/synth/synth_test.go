package synth_test

import (
	"context"
	"testing"

	"github.com/rlplanner/rlplanner/internal/baselines/gold"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/eval"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/prereq"
)

func TestGenerateDefaults(t *testing.T) {
	inst, err := synth.Generate(synth.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Catalog.Len() != 30 {
		t.Fatalf("items = %d", inst.Catalog.Len())
	}
	if inst.Catalog.Vocabulary().Len() != 60 {
		t.Fatalf("topics = %d", inst.Catalog.Vocabulary().Len())
	}
	if inst.Hard.Primary != 5 || inst.Hard.Secondary != 5 || inst.Hard.Gap != 3 {
		t.Fatalf("hard = %s", inst.Hard)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := synth.Generate(synth.Params{Seed: 7})
	b, _ := synth.Generate(synth.Params{Seed: 7})
	for i := 0; i < a.Catalog.Len(); i++ {
		ma, mb := a.Catalog.At(i), b.Catalog.At(i)
		if ma.ID != mb.ID || ma.Type != mb.Type || !ma.Topics.Equal(mb.Topics) ||
			prereq.Format(ma.Prereq) != prereq.Format(mb.Prereq) {
			t.Fatalf("item %d differs across identical seeds", i)
		}
	}
	c, _ := synth.Generate(synth.Params{Seed: 8})
	diff := false
	for i := 0; i < a.Catalog.Len() && !diff; i++ {
		if !a.Catalog.At(i).Topics.Equal(c.Catalog.At(i).Topics) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds generated identical topic vectors")
	}
}

func TestGenerateValidation(t *testing.T) {
	cases := []synth.Params{
		{Items: 5, Primary: 4, Secondary: 4}, // plan larger than catalog
		{TopicsPerItem: 100, Topics: 10},     // too many topics per item
		{PrereqDensity: 1.5},                 // density out of range
		{TopicSkew: 0.5},                     // skew below uniform
	}
	for i, p := range cases {
		p.Seed = int64(i)
		if _, err := synth.Generate(p); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestGenerateAcyclicPrereqs(t *testing.T) {
	inst, err := synth.Generate(synth.Params{Items: 60, PrereqDensity: 0.6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// References always point at lower-indexed items: acyclic.
	for i := 0; i < inst.Catalog.Len(); i++ {
		m := inst.Catalog.At(i)
		for _, ref := range prereq.ReferencedItems(m.Prereq) {
			j, ok := inst.Catalog.Index(ref)
			if !ok {
				t.Fatalf("%s references unknown %s", m.ID, ref)
			}
			if j >= i {
				t.Fatalf("%s references non-earlier item %s", m.ID, ref)
			}
		}
	}
}

func TestGenerateFeasibilityGuarantee(t *testing.T) {
	// The gold synthesizer must find a constraint-perfect plan on every
	// generated instance — the generator's feasibility guarantee.
	for seed := int64(0); seed < 8; seed++ {
		inst, err := synth.Generate(synth.Params{Seed: seed, Items: 25 + int(seed)})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := gold.Plan(inst)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := eval.Score(inst, plan); got != inst.GoldScore {
			t.Fatalf("seed %d: gold score %v, want %v", seed, got, inst.GoldScore)
		}
	}
}

func TestGeneratedInstanceLearnsEndToEnd(t *testing.T) {
	inst := synth.MustGenerate(synth.Params{Seed: 3, Items: 40, PrereqDensity: 0.3})
	p, err := engine.Train(context.Background(), "sarsa", inst, core.Options{Episodes: 250, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Recommend(engine.DefaultStart)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 10 {
		t.Fatalf("plan length = %d", len(plan))
	}
	if eval.Score(inst, plan) <= 0 {
		d := eval.Evaluate(inst, plan)
		t.Fatalf("synthetic plan scored 0: %v", d.Violations)
	}
}

func TestSplitFeasibleItemsExist(t *testing.T) {
	inst := synth.MustGenerate(synth.Params{Seed: 4, Primary: 7, Secondary: 8, Items: 40})
	var freeP, freeS int
	for i := 0; i < inst.Catalog.Len(); i++ {
		m := inst.Catalog.At(i)
		if m.Prereq != nil {
			continue
		}
		if m.Type == item.Primary {
			freeP++
		} else {
			freeS++
		}
	}
	if freeP < 7 || freeS < 8 {
		t.Fatalf("feasibility core missing: %d free primaries, %d free secondaries", freeP, freeS)
	}
}
