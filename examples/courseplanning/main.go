// Course planning (the paper's Example 1): an aspiring data scientist
// plans an M.S. DS-CT degree. The example compares RL-Planner against the
// advisor-crafted gold standard and the automated baselines, and runs the
// simulated student panel over both plans.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"github.com/rlplanner/rlplanner"
)

func main() {
	inst, err := rlplanner.InstanceByName("Univ-1 M.S. DS-CT")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %d courses, %d topics, start %s\n\n",
		inst.Name(), inst.NumItems(), len(inst.Topics()), inst.DefaultStart())

	// The degree's prerequisite structure, as an advisor would present it.
	fmt.Println("Courses with prerequisites:")
	for _, m := range inst.Items() {
		if m.Prerequisite != "[]" {
			fmt.Printf("  %-10s needs %s\n", m.ID, m.Prerequisite)
		}
	}
	fmt.Println()

	// RL-Planner.
	pol, err := rlplanner.Train(context.Background(), inst, "sarsa", rlplanner.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	rl, err := pol.Recommend("")
	if err != nil {
		log.Fatal(err)
	}

	// Baselines.
	goldPlan, err := rlplanner.GoldStandard(inst)
	if err != nil {
		log.Fatal(err)
	}
	edaPlan, err := rlplanner.EDABaseline(inst, rlplanner.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	omegaPlan, err := rlplanner.OmegaBaseline(inst, rlplanner.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	show := func(name string, p *rlplanner.Plan) {
		status := "valid"
		if !p.SatisfiesConstraints {
			status = fmt.Sprintf("INVALID (%d violations)", len(p.Violations))
		}
		fmt.Printf("%-12s score %5.2f  %s\n  %s\n",
			name, p.Score, status, strings.Join(p.IDs(), " → "))
	}
	show("RL-Planner", rl)
	show("Gold", goldPlan)
	show("EDA", edaPlan)
	show("OMEGA", omegaPlan)

	// Simulated user study (25 student raters, §IV-C).
	fmt.Println("\nSimulated 25-student panel (1–5):")
	for _, c := range []struct {
		name string
		plan *rlplanner.Plan
	}{{"RL-Planner", rl}, {"Gold", goldPlan}} {
		r, err := rlplanner.RatePlan(inst, c.plan, 25, 42)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s overall %.2f  ordering %.2f  coverage %.2f  interleaving %.2f\n",
			c.name, r.Overall, r.Ordering, r.Coverage, r.Interleaving)
	}
}
