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
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the command: it parses args, reads interactive commands from
// in and prints to out.
func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("rlplanner", flag.ExitOnError)
	var (
		list      = fs.Bool("list", false, "list built-in instances and exit")
		engines   = fs.Bool("engines", false, "list registered planning engines and exit")
		items     = fs.Bool("items", false, "print the instance catalog and exit")
		instance  = fs.String("instance", "Univ-1 M.S. DS-CT", "instance name")
		start     = fs.String("start", "", "starting item id (default: instance's)")
		episodes  = fs.Int("episodes", 0, "learning episodes N (0 = Table III default)")
		minSim    = fs.Bool("min-sim", false, "use the minimum-similarity reward variant")
		seed      = fs.Int64("seed", 1, "random seed")
		savePath  = fs.String("save", "", "save the trained policy artifact to this file")
		loadPath  = fs.String("load", "", "load a policy artifact instead of training")
		engineFl  = fs.String("engine", "", "planning engine (see -engines; default sarsa)")
		baseline  = fs.String("baseline", "", "deprecated alias of -engine")
		transfer  = fs.String("transfer", "", "transfer the learned policy to this instance")
		rate      = fs.Bool("rate", false, "run the simulated rater panel on the plan")
		repl      = fs.Bool("interactive", false, "plan step by step: accept/reject suggestions")
		explain   = fs.Bool("explain", false, "justify every plan step (antecedents, topics)")
		timeLimit = fs.Float64("time", 0, "trip time threshold t in hours (0 = default)")
		maxDist   = fs.Float64("distance", 0, "trip distance threshold d in km (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, b := range rlplanner.Instances() {
			kind := "course"
			if b.IsTrip() {
				kind = "trip"
			}
			fmt.Fprintf(out, "%-28s %-6s %3d items, start %q\n",
				b.Name(), kind, b.NumItems(), b.DefaultStart())
		}
		return nil
	}
	if *engines {
		for _, name := range rlplanner.Engines() {
			fmt.Fprintln(out, name)
		}
		return nil
	}

	inst, err := rlplanner.InstanceByName(*instance)
	if err != nil {
		return err
	}

	if *items {
		for _, m := range inst.Items() {
			role := "secondary"
			if m.Primary {
				role = "primary"
			}
			fmt.Fprintf(out, "%-36s %-9s %4.2g cr  pre=%s\n", m.ID, role, m.Credits, m.Prerequisite)
		}
		return nil
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
	if err != nil {
		return err
	}

	// Every engine goes through the registry's train/serve split: obtain
	// an immutable policy (trained or loaded), then recommend.
	var pol *rlplanner.Policy
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			return err
		}
		pol, err = rlplanner.LoadPolicyArtifact(f, inst, opts)
		f.Close()
		if err != nil {
			return err
		}
	} else if pol, err = rlplanner.Train(context.Background(), inst, engineName, opts); err != nil {
		return err
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		if err := pol.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "policy saved to %s\n", *savePath)
	}
	if *transfer != "" {
		// The §IV-D case study: map the learned values onto the target
		// catalog and serve from there, under the same thresholds and
		// reward options. -start names an item of the source catalog,
		// so the target walks from its own default start.
		if inst, err = rlplanner.InstanceByName(*transfer); err != nil {
			return err
		}
		target := opts
		target.Start = ""
		if pol, err = pol.Transfer(inst, target); err != nil {
			return err
		}
	}
	var plan *rlplanner.Plan
	if *repl {
		s, err := pol.NewSession(5)
		if err != nil {
			return err
		}
		if plan, err = interactiveLoop(s, in, out); err != nil {
			return err
		}
	} else if plan, err = pol.Recommend(""); err != nil {
		return err
	}

	printPlan(out, inst, plan)

	if *explain {
		lines, err := rlplanner.ExplainPlan(inst, plan)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "\nStep-by-step justification:")
		for _, l := range lines {
			fmt.Fprintln(out, l)
		}
	}

	if *rate {
		r, err := rlplanner.RatePlan(inst, plan, 25, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nSimulated 25-rater panel (1–5):\n")
		fmt.Fprintf(out, "  overall       %.2f\n", r.Overall)
		fmt.Fprintf(out, "  ordering      %.2f\n", r.Ordering)
		fmt.Fprintf(out, "  coverage      %.2f\n", r.Coverage)
		fmt.Fprintf(out, "  interleaving  %.2f\n", r.Interleaving)
	}
	return nil
}

func printPlan(out io.Writer, inst *rlplanner.Instance, plan *rlplanner.Plan) {
	fmt.Fprintf(out, "Plan for %s (score %.2f of gold %.2f):\n",
		inst.Name(), plan.Score, inst.GoldScore())
	for i, s := range plan.Steps {
		role := "secondary"
		if s.Primary {
			role = "primary"
		}
		fmt.Fprintf(out, "%2d. %-36s (%s, %.2g)\n", i+1, s.ID, role, s.Credits)
	}
	fmt.Fprintf(out, "total credits/hours: %.2f, ideal-topic coverage: %.0f%%\n",
		plan.TotalCredits, 100*plan.CoverageRatio)
	if plan.SatisfiesConstraints {
		fmt.Fprintln(out, "all hard constraints satisfied")
	} else {
		fmt.Fprintln(out, "hard-constraint violations:")
		for _, v := range plan.Violations {
			fmt.Fprintf(out, "  - %s\n", v)
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
