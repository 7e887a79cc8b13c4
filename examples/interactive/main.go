// Interactive planning (§IV-F): the planner suggests, the user decides.
// This scripted dialogue plans a Paris day trip where the "user" rejects
// every museum after the first — the planner adapts each round and
// auto-completes the rest.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"github.com/rlplanner/rlplanner"
)

func main() {
	paris, err := rlplanner.InstanceByName("Paris")
	if err != nil {
		log.Fatal(err)
	}
	pol, err := rlplanner.Train(context.Background(), paris, "sarsa", rlplanner.Options{Episodes: 300, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}

	s, err := pol.NewSession(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("starting at %v\n\n", s.PlanIDs())

	for round := 1; !s.Done() && round <= 3; round++ {
		sugs := s.Suggestions()
		if len(sugs) == 0 {
			break
		}
		fmt.Printf("round %d suggestions:\n", round)
		for _, sug := range sugs {
			valid := " "
			if sug.Valid {
				valid = "✓"
			}
			fmt.Printf("  %s %-35s reward %.2f  Q %.2f\n", valid, sug.ID, sug.Reward, sug.Q)
		}

		// Our picky traveler: reject further museums, accept the best rest.
		accepted := false
		for _, sug := range sugs {
			if strings.Contains(sug.ID, "musée") || strings.Contains(sug.ID, "museum") {
				fmt.Printf("  user: no more museums — reject %q\n", sug.ID)
				if err := s.Reject(sug.ID); err != nil {
					log.Fatal(err)
				}
				continue
			}
			fmt.Printf("  user: accept %q\n\n", sug.ID)
			if err := s.Accept(sug.ID); err != nil {
				log.Fatal(err)
			}
			accepted = true
			break
		}
		if !accepted {
			break
		}
	}

	plan := s.AutoComplete()
	fmt.Printf("final itinerary (score %.2f, %.2fh):\n", plan.Score, plan.TotalCredits)
	for i, step := range plan.Steps {
		fmt.Printf("  %d. %s\n", i+1, step.ID)
	}
	fmt.Printf("constraints satisfied: %v\n", plan.SatisfiesConstraints)
}
