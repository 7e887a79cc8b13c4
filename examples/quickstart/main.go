// Quickstart: learn a policy for the M.S. Data Science (Computational
// Track) program and print a 10-course plan satisfying all degree
// requirements.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/rlplanner/rlplanner"
)

func main() {
	inst, err := rlplanner.InstanceByName("Univ-1 M.S. DS-CT")
	if err != nil {
		log.Fatal(err)
	}

	pol, err := rlplanner.Train(context.Background(), inst, "sarsa", rlplanner.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	plan, err := pol.Recommend("")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Course plan for %s (score %.2f / gold %.2f):\n",
		inst.Name(), plan.Score, inst.GoldScore())
	for i, step := range plan.Steps {
		role := "elective"
		if step.Primary {
			role = "core"
		}
		fmt.Printf("  semester %d, slot %d: %-10s %-8s %s\n",
			i/3+1, i%3+1, step.ID, role, step.Name)
	}
	fmt.Printf("constraints satisfied: %v, credits: %.0f\n",
		plan.SatisfiesConstraints, plan.TotalCredits)
}
