package rlplanner_test

import (
	"context"
	"fmt"
	"log"

	"github.com/rlplanner/rlplanner"
)

// The basic flow: pick an instance, learn, plan.
func ExampleTrain() {
	inst, err := rlplanner.InstanceByName("Univ-1 M.S. DS-CT")
	if err != nil {
		log.Fatal(err)
	}
	pol, err := rlplanner.Train(context.Background(), inst, "sarsa", rlplanner.Options{Episodes: 200, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := pol.Recommend("")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(plan.Steps), "courses,", plan.TotalCredits, "credits, valid:", plan.SatisfiesConstraints)
	// Output: 10 courses, 30 credits, valid: true
}

// The gold standard attains the perfect interleaving bound.
func ExampleGoldStandard() {
	inst, err := rlplanner.InstanceByName("Univ-1 M.S. DS-CT")
	if err != nil {
		log.Fatal(err)
	}
	gold, err := rlplanner.GoldStandard(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("gold score:", gold.Score)
	// Output: gold score: 10
}

// Custom catalogs plug into the same machinery.
func ExampleNewInstance() {
	inst, err := rlplanner.NewInstance(rlplanner.InstanceSpec{
		Name:   "Weekend Workshop",
		Topics: []string{"go", "testing", "profiling", "deploy"},
		Items: []rlplanner.ItemSpec{
			{ID: "intro", Type: "primary", Credits: 1, Topics: []string{"go"}},
			{ID: "tests", Credits: 1, Topics: []string{"testing"}},
			{ID: "perf", Credits: 1, Prereq: "intro", Topics: []string{"profiling"}},
			{ID: "ship", Type: "primary", Credits: 1, Prereq: "tests", Topics: []string{"deploy"}},
		},
		Credits: 4, Primary: 2, Secondary: 2, Gap: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(inst.Name(), "with", inst.NumItems(), "items, start:", inst.DefaultStart())
	// Output: Weekend Workshop with 4 items, start: intro
}

// Policies transfer across related instances (§IV-D of the paper).
func ExamplePolicy_Transfer() {
	nyc, err := rlplanner.InstanceByName("NYC")
	if err != nil {
		log.Fatal(err)
	}
	paris, err := rlplanner.InstanceByName("Paris")
	if err != nil {
		log.Fatal(err)
	}
	pol, err := rlplanner.Train(context.Background(), nyc, "sarsa", rlplanner.Options{Episodes: 100, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	abroad, err := pol.Transfer(paris, rlplanner.Options{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := abroad.Recommend("")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("transferred itinerary is valid:", plan.SatisfiesConstraints)
	// Output: transferred itinerary is valid: true
}

// Interactive sessions alternate between the planner and the user.
func ExamplePolicy_NewSession() {
	inst, err := rlplanner.InstanceByName("Univ-1 M.S. DS-CT")
	if err != nil {
		log.Fatal(err)
	}
	pol, err := rlplanner.Train(context.Background(), inst, "sarsa", rlplanner.Options{Episodes: 200, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	s, err := pol.NewSession(3)
	if err != nil {
		log.Fatal(err)
	}
	// Veto the first suggestion, then let the planner finish.
	if err := s.Reject(s.Suggestions()[0].ID); err != nil {
		log.Fatal(err)
	}
	plan := s.AutoComplete()
	fmt.Println(len(plan.Steps), "courses, valid:", plan.SatisfiesConstraints)
	// Output: 10 courses, valid: true
}
