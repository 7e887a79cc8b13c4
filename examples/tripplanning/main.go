// Trip planning (the paper's Example 2): a first-time visitor plans a day
// in Paris under a 6-hour visitation budget and a 5 km walking threshold,
// starting at the Louvre. The planner weaves must-see POIs between
// optional ones, never repeats a theme back-to-back, and places museums
// before restaurants.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/rlplanner/rlplanner"
)

func main() {
	paris, err := rlplanner.InstanceByName("Paris")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d POIs across %d themes\n\n", paris.Name(), paris.NumItems(), len(paris.Topics()))

	for _, budget := range []struct {
		hours float64
		km    float64
	}{
		{6, 5}, // the paper's default day trip
		{8, 5}, // a longer day
		{5, 4}, // a tight afternoon
	} {
		pol, err := rlplanner.Train(context.Background(), paris, "sarsa", rlplanner.Options{
			Seed:           3,
			TimeLimitHours: budget.hours,
			MaxDistanceKm:  budget.km,
		})
		if err != nil {
			log.Fatal(err)
		}
		plan, err := pol.Recommend("")
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("Itinerary for t ≤ %gh, d ≤ %g km (popularity score %.2f):\n",
			budget.hours, budget.km, plan.Score)
		for i, s := range plan.Steps {
			marker := " "
			if s.Primary {
				marker = "★"
			}
			fmt.Printf("  %d. %s %-35s %.2gh\n", i+1, marker, s.ID, s.Credits)
		}
		fmt.Printf("  total %.2f hours; constraints satisfied: %v\n\n",
			plan.TotalCredits, plan.SatisfiesConstraints)
	}

	// The travel agent's handcrafted benchmark.
	goldPlan, err := rlplanner.GoldStandard(paris)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Travel-agent gold itinerary (score %.2f): %v\n", goldPlan.Score, goldPlan.IDs())
}
