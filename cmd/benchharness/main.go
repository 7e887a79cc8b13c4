// Command benchharness regenerates every table and figure of the paper's
// evaluation section and prints them as text tables.
//
// Usage:
//
//	benchharness [-exp all|fig1a,fig1b,tab4,tab5,tab7,tab8,tab9..tab16,fig2]
//	             [-runs 10] [-episodes 0] [-seed 1] [-quick]
//	             [-workers 0] [-benchjson dir] [-baseline file] [-list-engines]
//	             [-serve] [-serve-instance name] [-serve-conc 0]
//	             [-serve-duration 3s] [-serve-batch 64]
//	             [-serve-sweep] [-serve-sweep-duration 2s]
//	             [-train] [-train-instance name] [-train-perturb 5] [-train-runs 3]
//	             [-scale] [-scale-sizes 4096,16384,50000,100000]
//
// -list-engines prints the registered planning engines the experiments
// route through and exits.
//
// -serve, -train and -scale each measure one record, write it as
// BENCH_<mode>.json under -benchjson, and gate it against the committed
// record named by -baseline (see bounds in benchjson.go).
//
// -serve switches the harness into serving-latency mode: it mounts the
// HTTP API in-process, trains the policy through one warm-up request,
// then drives concurrent /api/plan (and /api/plan/batch) clients and
// reports p50/p99 latency, throughput and allocs per request. The gate
// fails on a >2x p99 regression, and on a client count that differs
// from the baseline's. -serve-sweep adds a multi-core scaling phase: the
// plan phase reruns at GOMAXPROCS 1/2/4/8 with mutex/block profiling on,
// recording req/s, latency, scaling efficiency and the hottest
// contention frames; on a ≥4-core host the run fails when 4-proc
// throughput is below 2.5× the 1-proc figure (the gate reports a skip
// on smaller hosts).
//
// -train switches the harness into training-throughput mode: it
// cold-trains the SARSA engine at 1/2/4/8 walkers (best-of -train-runs
// wall clock, episodes/s and speedup vs one walker), then warm-starts a
// derivation onto a -train-perturb-item catalog revision and compares
// it against the cold time. The gate fails on a >2x cold-train
// wall-clock regression at one walker.
//
// -scale switches the harness into catalog-scale mode: for each size in
// -scale-sizes it generates a synthetic geo instance, builds the tiered
// environment, trains SARSA with a size-scaled episode budget, measures
// the per-candidate data-plane step cost, then serves the trained
// artifact end-to-end through an in-process HTTP stack (spec upload →
// artifact import → /api/plan). It records items vs ns/step vs resident
// bytes (Q + distance store + topic bitsets, next to the dense-layout
// equivalent) vs train time. The gate fails when resident bytes at any
// size the baseline shares grew past 1.5x.
//
// -quick trades fidelity for speed (3 runs, 150 episodes); the default
// reproduces the paper's 10-run averages at the Table III episode counts.
// -workers bounds how many independent runs execute concurrently
// (0 = GOMAXPROCS, 1 = sequential; results are identical either way).
// -benchjson writes one machine-readable BENCH_<id>.json per experiment
// (ns/op, allocs/op, speedup vs a sequential reference pass) plus a
// BENCH_hotpath.json for the per-step MDP loop, so successive PRs can
// track the perf trajectory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/experiments"
	"github.com/rlplanner/rlplanner/internal/plot"
	"github.com/rlplanner/rlplanner/internal/stats"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		runs      = flag.Int("runs", 10, "runs to average (the paper uses 10)")
		episodes  = flag.Int("episodes", 0, "override N for every learner (0 = Table III defaults)")
		seed      = flag.Int64("seed", 1, "base random seed")
		quick     = flag.Bool("quick", false, "fast mode: 3 runs, 150 episodes")
		charts    = flag.Bool("charts", false, "render Figures 1 and 2 as text charts too")
		workers   = flag.Int("workers", 0, "concurrent runs per experiment (0 = GOMAXPROCS, 1 = sequential)")
		benchjson = flag.String("benchjson", "", "directory for BENCH_<id>.json perf records (empty = off)")
		baseline  = flag.String("baseline", "", "committed BENCH_<mode>.json to gate a -serve, -train or -scale run against")
		listEng   = flag.Bool("list-engines", false, "list registered planning engines and exit")

		serve         = flag.Bool("serve", false, "serving-latency mode: benchmark the live HTTP plan path and exit")
		serveInstance = flag.String("serve-instance", "Univ-1 M.S. DS-CT", "instance for -serve")
		serveEngine   = flag.String("serve-engine", "sarsa", "engine for -serve")
		serveConc     = flag.Int("serve-conc", 0, "concurrent plan clients for -serve (0 = GOMAXPROCS)")
		serveDuration = flag.Duration("serve-duration", 3*time.Second, "timed phase length for -serve")
		serveBatch    = flag.Int("serve-batch", 64, "plans per /api/plan/batch request for -serve (0 = skip the batch phase)")

		serveSweep         = flag.Bool("serve-sweep", false, "with -serve: rerun the plan phase at GOMAXPROCS 1/2/4/8 and record scaling + contention profiles")
		serveSweepDuration = flag.Duration("serve-sweep-duration", 2*time.Second, "timed phase length per GOMAXPROCS setting of -serve-sweep")

		train         = flag.Bool("train", false, "training-throughput mode: benchmark cold-train scaling and warm-start derivation, then exit")
		trainInstance = flag.String("train-instance", "Univ-1 M.S. DS-CT", "instance for -train")
		trainPerturb  = flag.Int("train-perturb", 5, "catalog items renamed for the warm-start phase of -train")
		trainRuns     = flag.Int("train-runs", 3, "timed repetitions per -train configuration (best-of)")

		scale      = flag.Bool("scale", false, "catalog-scale mode: generate, train and serve synthetic instances at -scale-sizes, record memory and latency, then exit")
		scaleSizes = flag.String("scale-sizes", "4096,16384,50000,100000", "comma-separated catalog sizes for -scale")
	)
	flag.Parse()

	if *listEng {
		for _, name := range rlplanner.Engines() {
			fmt.Println(name)
		}
		return
	}

	if *serve || *scale || *train {
		var rec record
		var err error
		switch {
		case *serve:
			conc := *serveConc
			if conc <= 0 {
				conc = runtime.GOMAXPROCS(0)
			}
			rec, err = serveBench(serveConfig{
				Instance:      *serveInstance,
				Engine:        *serveEngine,
				Episodes:      *episodes,
				Seed:          *seed,
				Conc:          conc,
				Duration:      *serveDuration,
				Batch:         *serveBatch,
				Sweep:         *serveSweep,
				SweepDuration: *serveSweepDuration,
			})
		case *scale:
			var sizes []int
			for _, s := range strings.Split(*scaleSizes, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n < 16 {
					fmt.Fprintf(os.Stderr, "scale: bad size %q in -scale-sizes\n", s)
					os.Exit(2)
				}
				sizes = append(sizes, n)
			}
			rec, err = scaleBench(scaleConfig{Sizes: sizes, Episodes: *episodes, Seed: *seed})
		default:
			rec, err = trainBench(trainConfig{
				Instance: *trainInstance,
				Episodes: *episodes,
				Seed:     *seed,
				PerturbK: *trainPerturb,
				Runs:     *trainRuns,
			})
		}
		if err == nil && *benchjson != "" {
			err = writeRecord(*benchjson, rec)
		}
		if err == nil {
			var skipped []string
			skipped, err = gate(rec, *baseline)
			for _, s := range skipped {
				fmt.Printf("%s: %s\n", rec.Name, s)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", rec.Name, err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Config{Runs: *runs, BaseSeed: *seed, Episodes: *episodes, Workers: *workers}
	if *quick {
		cfg.Runs, cfg.Episodes = 3, 150
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	all := want["all"]
	ran := 0

	// All rendering goes through out so the sequential reference pass of
	// -benchjson can run silently.
	var out io.Writer = os.Stdout

	fail := func(id string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
		os.Exit(1)
	}

	// run executes one experiment. With -benchjson it first repeats the
	// experiment with Workers: 1 and output discarded to obtain the
	// sequential reference time, then times (and alloc-profiles) the real
	// pass and writes BENCH_<id>.json.
	run := func(id string, fn func(experiments.Config) error) {
		if !all && !want[id] {
			return
		}
		ran++
		var seqNs int64
		if *benchjson != "" {
			seqCfg := cfg
			seqCfg.Workers = 1
			out = io.Discard
			ns, _, _, err := measure(func() error { return fn(seqCfg) })
			out = os.Stdout
			if err != nil {
				fail(id, err)
			}
			seqNs = ns
		}
		ns, allocs, bytes, err := measure(func() error { return fn(cfg) })
		if err != nil {
			fail(id, err)
		}
		if *benchjson != "" {
			rec := newRecord(id, runParams{Workers: cfg.Workers, Runs: cfg.Runs, Episodes: cfg.Episodes})
			rec.Metrics = map[string]float64{
				"ops":           1,
				"ns_per_op":     float64(ns),
				"seq_ns_per_op": float64(seqNs),
				"speedup_ratio": float64(seqNs) / float64(ns),
				"allocs_per_op": float64(allocs),
				"bytes_per_op":  float64(bytes),
			}
			if err := writeRecord(*benchjson, rec); err != nil {
				fail(id, err)
			}
		}
		fmt.Fprintln(out)
	}

	render := func(t *stats.Table) error { return t.Render(out) }

	fig1Chart := func(rows []experiments.Fig1Row, title string) error {
		if !*charts {
			return nil
		}
		labels := make([]string, len(rows))
		rl, om, ed, gd := make([]float64, len(rows)), make([]float64, len(rows)),
			make([]float64, len(rows)), make([]float64, len(rows))
		for i, r := range rows {
			labels[i] = r.Instance
			rl[i], om[i], ed[i], gd[i] = r.RLAvgSim, r.Omega, r.EDA, r.Gold
		}
		fmt.Fprintln(out)
		return plot.Bars(out, title+" (chart)", labels, []plot.Series{
			{Name: "RL-Planner", Values: rl},
			{Name: "OMEGA", Values: om},
			{Name: "EDA", Values: ed},
			{Name: "Gold", Values: gd},
		}, 40)
	}

	run("fig1a", func(cfg experiments.Config) error {
		rows, err := experiments.Fig1Courses(cfg)
		if err != nil {
			return err
		}
		if err := render(experiments.Fig1Table(rows, "Fig 1(a): course planning — avg score over runs")); err != nil {
			return err
		}
		return fig1Chart(rows, "Fig 1(a)")
	})
	run("fig1b", func(cfg experiments.Config) error {
		rows, err := experiments.Fig1Trips(cfg)
		if err != nil {
			return err
		}
		if err := render(experiments.Fig1Table(rows, "Fig 1(b): trip planning — avg score over runs")); err != nil {
			return err
		}
		return fig1Chart(rows, "Fig 1(b)")
	})
	run("tab4", func(cfg experiments.Config) error {
		r, err := experiments.Table4(cfg)
		if err != nil {
			return err
		}
		return render(experiments.Table4Table(r))
	})
	run("tab5", func(cfg experiments.Config) error {
		cases, err := experiments.Table5(cfg)
		if err != nil {
			return err
		}
		return render(experiments.TransferTable(cases,
			"Table V: transfer learning between M.S. CS and M.S. DS-CT"))
	})
	run("tab7", func(cfg experiments.Config) error {
		cases, err := experiments.Table7(cfg)
		if err != nil {
			return err
		}
		return render(experiments.TransferTable(cases,
			"Table VII: transfer learning between NYC and Paris"))
	})
	run("tab8", func(cfg experiments.Config) error {
		rows, err := experiments.Table8(cfg)
		if err != nil {
			return err
		}
		return render(experiments.Table8Table(rows))
	})

	sweeps := map[string]func(experiments.Config) ([]*experiments.SweepResult, error){
		"tab9":  experiments.Table9,
		"tab10": experiments.Table10,
		"tab11": experiments.Table11,
		"tab12": experiments.Table12,
		"tab13": experiments.Table13,
		"tab14": experiments.Table14,
		"tab15": experiments.Table15,
		"tab16": experiments.Table16,
	}
	for _, id := range []string{"tab9", "tab10", "tab11", "tab12", "tab13", "tab14", "tab15", "tab16"} {
		fn := sweeps[id]
		run(id, func(cfg experiments.Config) error {
			results, err := fn(cfg)
			if err != nil {
				return err
			}
			for _, s := range results {
				if err := render(s.Render()); err != nil {
					return err
				}
				fmt.Fprintln(out)
			}
			return nil
		})
	}

	run("fig2", func(cfg experiments.Config) error {
		points, err := experiments.Fig2(cfg)
		if err != nil {
			return err
		}
		if err := render(experiments.Fig2Table(points)); err != nil {
			return err
		}
		if !*charts {
			return nil
		}
		byInstance := map[string][]float64{}
		var labels []string
		var order []string
		for _, p := range points {
			if _, ok := byInstance[p.Instance]; !ok {
				order = append(order, p.Instance)
			}
			byInstance[p.Instance] = append(byInstance[p.Instance],
				float64(p.Learn.Microseconds())/1000)
		}
		for _, p := range points[:len(points)/len(order)] {
			labels = append(labels, fmt.Sprintf("%d", p.Episodes))
		}
		var series []plot.Series
		for _, name := range order {
			series = append(series, plot.Series{Name: name + " learn ms", Values: byInstance[name]})
		}
		fmt.Fprintln(out)
		return plot.Lines(out, "Fig 2(a)(c): learning time vs N (chart)", labels, series, 50, 10)
	})

	run("ablations", func(cfg experiments.Config) error {
		rows, err := experiments.Ablations(cfg)
		if err != nil {
			return err
		}
		return render(experiments.AblationTable(rows))
	})

	if *benchjson != "" {
		for _, hp := range []struct {
			name string
			inst *dataset.Instance
		}{
			{"hotpath", univ.Univ1DSCT()},
			{"hotpath_trip", trip.NYC().Instance},
		} {
			rec, err := hotpathRecord(hp.name, hp.inst)
			if err != nil {
				fail(hp.name, err)
			}
			if err := writeRecord(*benchjson, rec); err != nil {
				fail(hp.name, err)
			}
			fmt.Fprintf(out, "hot path (%s): %.0f reward evals, %.0f ns/op, %.0f allocs/op → BENCH_%s.json\n",
				hp.name, rec.Metrics["ops"], rec.Metrics["ns_per_op"], rec.Metrics["allocs_per_op"], hp.name)
		}
	}

	if ran == 0 && *benchjson == "" {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *exp)
		os.Exit(2)
	}
}
