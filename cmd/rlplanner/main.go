// Command rlplanner plans course sequences and trip itineraries from the
// command line using the RL-Planner framework.
//
// Usage:
//
//	rlplanner -list
//	rlplanner -engines
//	rlplanner -instance "Univ-1 M.S. DS-CT" [-start "CS 675"] [-episodes 500]
//	          [-min-sim] [-seed 1] [-save policy.gob | -load policy.gob]
//	          [-engine sarsa|qlearning|valueiter|eda|omega|gold] [-rate] [-items]
//	rlplanner -instance NYC -transfer Paris
//
// -engine selects any registered planning engine (default: the paper's
// SARSA learner); -baseline is its deprecated alias. -save writes the
// trained policy as a versioned artifact and -load serves from one
// without retraining. With -transfer the policy trained (or loaded) on
// -instance is mapped onto the target instance without retraining (the
// §IV-D case study; value-based engines only). -rate runs the simulated
// 25-rater panel over the produced plan.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/rlplanner/rlplanner"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list built-in instances and exit")
		engines   = flag.Bool("engines", false, "list registered planning engines and exit")
		items     = flag.Bool("items", false, "print the instance catalog and exit")
		instance  = flag.String("instance", "Univ-1 M.S. DS-CT", "instance name")
		start     = flag.String("start", "", "starting item id (default: instance's)")
		episodes  = flag.Int("episodes", 0, "learning episodes N (0 = Table III default)")
		minSim    = flag.Bool("min-sim", false, "use the minimum-similarity reward variant")
		seed      = flag.Int64("seed", 1, "random seed")
		savePath  = flag.String("save", "", "save the trained policy artifact to this file")
		loadPath  = flag.String("load", "", "load a policy artifact instead of training")
		engineFl  = flag.String("engine", "", "planning engine (see -engines; default sarsa)")
		baseline  = flag.String("baseline", "", "deprecated alias of -engine")
		transfer  = flag.String("transfer", "", "transfer the learned policy to this instance")
		rate      = flag.Bool("rate", false, "run the simulated rater panel on the plan")
		repl      = flag.Bool("interactive", false, "plan step by step: accept/reject suggestions")
		explain   = flag.Bool("explain", false, "justify every plan step (antecedents, topics)")
		timeLimit = flag.Float64("time", 0, "trip time threshold t in hours (0 = default)")
		maxDist   = flag.Float64("distance", 0, "trip distance threshold d in km (0 = default)")
	)
	flag.Parse()

	if *list {
		for _, in := range rlplanner.Instances() {
			kind := "course"
			if in.IsTrip() {
				kind = "trip"
			}
			fmt.Printf("%-28s %-6s %3d items, start %q\n",
				in.Name(), kind, in.NumItems(), in.DefaultStart())
		}
		return
	}
	if *engines {
		for _, name := range rlplanner.Engines() {
			fmt.Println(name)
		}
		return
	}

	inst, err := rlplanner.InstanceByName(*instance)
	check(err)

	if *items {
		for _, m := range inst.Items() {
			role := "secondary"
			if m.Primary {
				role = "primary"
			}
			fmt.Printf("%-36s %-9s %4.2g cr  pre=%s\n", m.ID, role, m.Credits, m.Prerequisite)
		}
		return
	}

	opts := rlplanner.Options{
		Episodes:          *episodes,
		MinimumSimilarity: *minSim,
		Start:             *start,
		Seed:              *seed,
		TimeLimitHours:    *timeLimit,
		MaxDistanceKm:     *maxDist,
	}

	choice := *engineFl
	if choice == "" {
		choice = *baseline
	}
	engineName, err := rlplanner.EngineName(choice)
	check(err)

	// Every engine goes through the registry's train/serve split: obtain
	// an immutable policy (trained or loaded), then recommend.
	var pol *rlplanner.Policy
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		check(err)
		pol, err = rlplanner.LoadPolicyArtifact(f, inst, opts)
		check(err)
		f.Close()
	} else {
		pol, err = rlplanner.Train(context.Background(), inst, engineName, opts)
		check(err)
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		check(err)
		check(pol.Save(f))
		check(f.Close())
		fmt.Printf("policy saved to %s\n", *savePath)
	}
	if *transfer != "" {
		// The §IV-D case study: map the learned values onto the target
		// catalog and serve from there.
		inst, err = rlplanner.InstanceByName(*transfer)
		check(err)
		pol, err = pol.Transfer(inst, rlplanner.Options{Seed: *seed})
		check(err)
	}
	var plan *rlplanner.Plan
	if *repl {
		s, err := pol.NewSession(5)
		check(err)
		plan, err = interactiveLoop(s, os.Stdin, os.Stdout)
		check(err)
	} else {
		plan, err = pol.Recommend("")
		check(err)
	}

	printPlan(inst, plan)

	if *explain {
		lines, err := rlplanner.ExplainPlan(inst, plan)
		check(err)
		fmt.Println("\nStep-by-step justification:")
		for _, l := range lines {
			fmt.Println(l)
		}
	}

	if *rate {
		r, err := rlplanner.RatePlan(inst, plan, 25, *seed)
		check(err)
		fmt.Printf("\nSimulated 25-rater panel (1–5):\n")
		fmt.Printf("  overall       %.2f\n", r.Overall)
		fmt.Printf("  ordering      %.2f\n", r.Ordering)
		fmt.Printf("  coverage      %.2f\n", r.Coverage)
		fmt.Printf("  interleaving  %.2f\n", r.Interleaving)
	}
}

func printPlan(inst *rlplanner.Instance, plan *rlplanner.Plan) {
	fmt.Printf("Plan for %s (score %.2f of gold %.2f):\n",
		inst.Name(), plan.Score, inst.GoldScore())
	for i, s := range plan.Steps {
		role := "secondary"
		if s.Primary {
			role = "primary"
		}
		fmt.Printf("%2d. %-36s (%s, %.2g)\n", i+1, s.ID, role, s.Credits)
	}
	fmt.Printf("total credits/hours: %.2f, ideal-topic coverage: %.0f%%\n",
		plan.TotalCredits, 100*plan.CoverageRatio)
	if plan.SatisfiesConstraints {
		fmt.Println("all hard constraints satisfied")
	} else {
		fmt.Println("hard-constraint violations:")
		for _, v := range plan.Violations {
			fmt.Printf("  - %s\n", v)
		}
	}
}

// interactiveLoop drives a step-by-step session: each round prints the
// top suggestions and reads one command from in:
//
//	a <n>   accept suggestion n (1-based)
//	r <n>   reject suggestion n
//	f       finish: auto-complete the rest
//	q       stop and evaluate the partial plan
func interactiveLoop(s *rlplanner.Session, in io.Reader, out io.Writer) (*rlplanner.Plan, error) {
	sc := bufio.NewScanner(in)
	for !s.Done() {
		sugs := s.Suggestions()
		if len(sugs) == 0 {
			break
		}
		fmt.Fprintf(out, "\nplan so far: %v\n", s.PlanIDs())
		for i, sug := range sugs {
			valid := " "
			if sug.Valid {
				valid = "✓"
			}
			fmt.Fprintf(out, "  %d. %s %-36s reward %.2f  Q %.2f\n", i+1, valid, sug.ID, sug.Reward, sug.Q)
		}
		fmt.Fprint(out, "a <n> accept / r <n> reject / f finish / q quit > ")
		if !sc.Scan() {
			break
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "q":
			return s.Current(), nil
		case "f":
			return s.AutoComplete(), nil
		case "a", "r":
			if len(fields) < 2 {
				fmt.Fprintln(out, "need a suggestion number")
				continue
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 || n > len(sugs) {
				fmt.Fprintln(out, "bad suggestion number")
				continue
			}
			id := sugs[n-1].ID
			if fields[0] == "a" {
				err = s.Accept(id)
			} else {
				err = s.Reject(id)
			}
			if err != nil {
				fmt.Fprintln(out, err)
			}
		default:
			fmt.Fprintln(out, "commands: a <n>, r <n>, f, q")
		}
	}
	return s.Current(), nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
