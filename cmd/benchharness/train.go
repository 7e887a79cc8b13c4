package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/rlplanner/rlplanner"
)

// trainConfig parameterizes the training-throughput harness (-train).
type trainConfig struct {
	Instance string
	Episodes int
	Seed     int64
	PerturbK int
	Runs     int
}

// trainWorkerCounts are the worker counts the cold-start scaling curve
// sweeps. 1 is the parallel protocol on one walker (the determinism
// reference); the rest show how throughput scales with cores.
var trainWorkerCounts = []int{1, 2, 4, 8}

// trainBench measures cold-train wall clock at each worker count
// (best-of-Runs, so scheduler noise does not masquerade as regression)
// and then one warm-start derivation onto a PerturbK-item catalog
// revision, comparing it against the workers=1 cold time. Every run
// goes through the public Train/Derive API — the same path rlplannerd
// exercises.
func trainBench(cfg trainConfig) (record, error) {
	if cfg.Runs < 1 {
		cfg.Runs = 1
	}
	rec := newRecord("train", runParams{Instance: cfg.Instance, Engine: "sarsa", Seed: cfg.Seed,
		Runs: cfg.Runs, PerturbK: cfg.PerturbK})
	inst, err := rlplanner.InstanceByName(cfg.Instance)
	if err != nil {
		return rec, err
	}
	ctx := context.Background()
	opts := rlplanner.Options{Episodes: cfg.Episodes, Seed: cfg.Seed}

	// Cold-start scaling curve, one point per worker count; speedup is
	// against the workers=1 point, whose policy doubles as the
	// warm-start source below.
	m := rec.Metrics
	var src *rlplanner.Policy
	for _, w := range trainWorkerCounts {
		o := opts
		o.TrainWorkers = w
		var best int64
		var pol *rlplanner.Policy
		for r := 0; r < cfg.Runs; r++ {
			t0 := time.Now()
			p, err := rlplanner.Train(ctx, inst, "sarsa", o)
			ns := time.Since(t0).Nanoseconds()
			if err != nil {
				return rec, fmt.Errorf("cold train (workers=%d): %w", w, err)
			}
			if best == 0 || ns < best {
				best, pol = ns, p
			}
		}
		if src == nil {
			src = pol
		}
		rec.Params.Episodes = pol.EpisodesTrained()
		pre := fmt.Sprintf("workers_%d.", w)
		m[pre+"cold_ns"] = float64(best)
		m[pre+"episodes_per_s"] = float64(rec.Params.Episodes) / (float64(best) / 1e9)
		m[pre+"speedup_ratio"] = m["workers_1.cold_ns"] / float64(best)
		fmt.Printf("train: cold %d episodes, workers=%d: %s (%.0f episodes/s, %.2fx vs 1 worker)\n",
			rec.Params.Episodes, w, time.Duration(best), m[pre+"episodes_per_s"], m[pre+"speedup_ratio"])
	}

	// Warm-start phase: derive the workers=1 policy onto a PerturbK-item
	// revision of the same catalog and time the distance-scaled retrain.
	spec, err := perturbInstanceSpec(inst, cfg.PerturbK)
	if err != nil {
		return rec, err
	}
	target, err := rlplanner.NewInstance(spec)
	if err != nil {
		return rec, err
	}
	var warmBest int64
	for r := 0; r < cfg.Runs; r++ {
		t0 := time.Now()
		_, stats, err := rlplanner.Derive(ctx, src, target, opts)
		ns := time.Since(t0).Nanoseconds()
		if err != nil {
			return rec, fmt.Errorf("warm derive: %w", err)
		}
		if warmBest == 0 || ns < warmBest {
			warmBest = ns
		}
		m["warm_distance"] = stats.Distance
		m["cold_episodes"] = float64(stats.ColdEpisodes)
		m["warm_episodes"] = float64(stats.WarmEpisodes)
	}
	m["warm_ns"] = float64(warmBest)
	m["warm_speedup_ratio"] = m["workers_1.cold_ns"] / m["warm_ns"]
	fmt.Printf("train: warm-start (%d-item revision, distance %.3f): %d of %d episodes, %s (%.2fx vs cold)\n",
		cfg.PerturbK, m["warm_distance"], int(m["warm_episodes"]), int(m["cold_episodes"]),
		time.Duration(warmBest), m["warm_speedup_ratio"])
	return rec, nil
}

// perturbInstanceSpec renames k leaf items of inst's spec (skipping the
// default start and any item another item's prerequisite references),
// simulating a catalog revision of k items with unchanged topics — the
// incremental-retraining scenario warm-start derivation targets.
func perturbInstanceSpec(inst *rlplanner.Instance, k int) (rlplanner.InstanceSpec, error) {
	spec := inst.Spec()
	spec.Name = spec.Name + " rev"
	renamed := 0
	for i := range spec.Items {
		if renamed == k {
			break
		}
		id := spec.Items[i].ID
		if id == spec.DefaultStart {
			continue
		}
		referenced := false
		for j := range spec.Items {
			if j != i && strings.Contains(spec.Items[j].Prereq, id) {
				referenced = true
				break
			}
		}
		if referenced {
			continue
		}
		spec.Items[i].ID = id + " (rev)"
		renamed++
	}
	if renamed != k {
		return spec, fmt.Errorf("perturb: could only rename %d of %d items in %s",
			renamed, k, inst.Name())
	}
	return spec, nil
}
