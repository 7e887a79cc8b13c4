// Transfer learning (the paper's §IV-D case study): a policy learned for
// one task is applied to a related one — M.S. CS ↔ M.S. DS-CT inside the
// same university (shared course ids) and NYC ↔ Paris across cities
// (matched by theme similarity). Fully automated baselines cannot do
// this: they carry no learned state to transfer.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/rlplanner/rlplanner"
)

func main() {
	// Course transfer: learn M.S. CS, plan M.S. DS-CT.
	cs, err := rlplanner.InstanceByName("Univ-1 M.S. CS")
	if err != nil {
		log.Fatal(err)
	}
	dsct, err := rlplanner.InstanceByName("Univ-1 M.S. DS-CT")
	if err != nil {
		log.Fatal(err)
	}

	source, err := rlplanner.Train(context.Background(), cs, "sarsa", rlplanner.Options{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	srcPlan, err := source.Recommend("")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Learnt on %s (score %.2f): %v\n\n", cs.Name(), srcPlan.Score, srcPlan.IDs())

	moved, err := source.Transfer(dsct, rlplanner.Options{Seed: 12})
	if err != nil {
		log.Fatal(err)
	}
	dstPlan, err := moved.Recommend("")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Applied to %s (score %.2f):\n", dsct.Name(), dstPlan.Score)
	for _, s := range dstPlan.Steps {
		role := "elective"
		if s.Primary {
			role = "core"
		}
		fmt.Printf("  %s : %s\n", s.ID, role)
	}
	fmt.Printf("constraints satisfied: %v\n\n", dstPlan.SatisfiesConstraints)

	// Trip transfer: learn NYC, itinerary for Paris.
	nyc, err := rlplanner.InstanceByName("NYC")
	if err != nil {
		log.Fatal(err)
	}
	paris, err := rlplanner.InstanceByName("Paris")
	if err != nil {
		log.Fatal(err)
	}
	tourist, err := rlplanner.Train(context.Background(), nyc, "sarsa", rlplanner.Options{Seed: 13})
	if err != nil {
		log.Fatal(err)
	}
	abroad, err := tourist.Transfer(paris, rlplanner.Options{Seed: 14})
	if err != nil {
		log.Fatal(err)
	}
	itinerary, err := abroad.Recommend("")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NYC policy applied to Paris (score %.2f): %v\n",
		itinerary.Score, itinerary.IDs())
}
