package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
)

// record is the one machine-readable perf record every harness mode
// writes as BENCH_<name>.json when -benchjson is set. Metric names
// carry their unit (_ns, _per_s, _bytes, _per_op, _ratio; a bare noun
// is a count); a point of a sweep prefixes its metrics with the point
// ("gomaxprocs_4.p99_ns", "workers_1.cold_ns", "items_16384.resident_bytes").
type record struct {
	Name    string              `json:"name"`
	Host    host                `json:"host"`
	Params  runParams           `json:"params"`
	Metrics map[string]float64  `json:"metrics"`
	Lists   map[string][]string `json:"lists,omitempty"`
}

// host is what a timing depends on besides the code: every speedup and
// latency figure is relative to the cores the run had.
type host struct {
	NumCPU     int    `json:"num_cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version,omitempty"`
}

// runParams are the run's inputs; a mode sets the ones it uses.
type runParams struct {
	Instance   string `json:"instance,omitempty"`
	Engine     string `json:"engine,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Clients    int    `json:"clients,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	Runs       int    `json:"runs,omitempty"`
	Episodes   int    `json:"episodes,omitempty"`
	Batch      int    `json:"batch,omitempty"`
	PerturbK   int    `json:"perturb_k,omitempty"`
	DurationNs int64  `json:"duration_ns,omitempty"`
}

// newRecord starts a record on this host.
func newRecord(name string, p runParams) record {
	return record{
		Name:    name,
		Host:    host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
		Params:  p,
		Metrics: map[string]float64{},
	}
}

// writeRecord writes rec to dir/BENCH_<name>.json.
func writeRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+rec.Name+".json"), append(data, '\n'), 0o644)
}

// readRecord reads a record writeRecord wrote.
func readRecord(file string) (record, error) {
	var rec record
	data, err := os.ReadFile(file)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", file, err)
	}
	return rec, nil
}

// bound gates the metrics whose names match pattern (path.Match
// syntax, so one bound covers every point of a sweep). With ratio set,
// a metric fails above ratio × the baseline's value of the same name,
// and a baseline sharing no matching metric is an error. With floor
// set, a metric fails below floor on a host with at least minCPU cores;
// on a smaller host its points measure oversubscription, not
// parallelism, so the bound reports a skip.
type bound struct {
	pattern string
	ratio   float64
	floor   float64
	minCPU  int
}

// bounds are the gated modes' bounds (DESIGN §11, §12, §14, §16). The
// scaling floor applies only to runs that recorded the -serve-sweep.
var bounds = map[string][]bound{
	"serve": {{pattern: "p99_ns", ratio: 2}, {pattern: "scaling_4x_ratio", floor: 2.5, minCPU: 4}},
	"train": {{pattern: "workers_1.cold_ns", ratio: 2}},
	"scale": {{pattern: "items_*.resident_bytes", ratio: 1.5}},
}

// gate checks rec against its mode's bounds and, when baseline names a
// file, against the committed record in it. Latency is comparable only
// at equal load, so a run with a different client count than the
// baseline is an error rather than a pass or a regression. It returns
// the bounds it skipped on this host.
func gate(rec record, baseline string) (skipped []string, err error) {
	var base record
	if baseline != "" {
		if base, err = readRecord(baseline); err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		if rec.Params.Clients != base.Params.Clients {
			return nil, fmt.Errorf("run used %d client(s) but baseline %s was recorded with %d: rerun with -serve-conc %d",
				rec.Params.Clients, baseline, base.Params.Clients, base.Params.Clients)
		}
	}
	for _, b := range bounds[rec.Name] {
		var names []string
		for name := range rec.Metrics {
			// The patterns are the literals in bounds; TestGate matches each.
			if ok, _ := path.Match(b.pattern, name); ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		if b.floor > 0 {
			if len(names) > 0 && rec.Host.NumCPU < b.minCPU {
				skipped = append(skipped, fmt.Sprintf("%s gate skipped: host has %d CPU core(s), gate needs %d",
					b.pattern, rec.Host.NumCPU, b.minCPU))
				continue
			}
			for _, name := range names {
				if v := rec.Metrics[name]; v < b.floor {
					return skipped, fmt.Errorf("%s is %.2f, gate requires at least %.2f", name, v, b.floor)
				}
			}
			continue
		}
		if baseline == "" {
			continue
		}
		matched := 0
		for _, name := range names {
			was := base.Metrics[name]
			if was <= 0 {
				continue
			}
			matched++
			if now := rec.Metrics[name]; now > b.ratio*was {
				return skipped, fmt.Errorf("%s regression: %.0f now vs %.0f baseline (>%gx)", name, now, was, b.ratio)
			}
		}
		if matched == 0 {
			return skipped, fmt.Errorf("baseline %s shares no %s metric with this run", baseline, b.pattern)
		}
	}
	return skipped, nil
}

// measure times fn once and reports wall nanoseconds plus heap
// allocation deltas. The GC stats are process-wide, so records taken
// while other goroutines run attribute their allocations too — fine for
// the harness, which runs experiments one at a time.
func measure(fn func() error) (ns int64, allocs, bytes uint64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err = fn()
	ns = time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	return ns, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, err
}

// hotpathRecord benchmarks the per-step MDP loop directly — full greedy
// episodes on the given instance, one op per candidate-reward evaluation —
// so alloc regressions in Episode.Reward/AppendCandidates show up in the
// JSON trajectory without regenerating any figure. The course-shaped
// Univ-1 record exercises prerequisites and credit budgets; the NYC trip
// record exercises the distance matrix and theme gates.
func hotpathRecord(name string, inst *dataset.Instance) (record, error) {
	rec := newRecord(name, runParams{Workers: 1})
	env, err := core.BuildEnv(inst, core.Options{})
	if err != nil {
		return rec, err
	}
	start := inst.StartIndex()

	const episodes = 2000
	ops := 0
	var cands []int
	ep, err := env.Start(start)
	if err != nil {
		return rec, err
	}
	ns, allocs, bytes, err := measure(func() error {
		for i := 0; i < episodes; i++ {
			if err := ep.Reset(start); err != nil {
				return err
			}
			for !ep.Done() {
				cands = ep.AppendCandidates(cands[:0])
				if len(cands) == 0 {
					break
				}
				best, bestR := cands[0], -1.0
				for _, c := range cands {
					if r := ep.Reward(c); r > bestR {
						best, bestR = c, r
					}
					ops++
				}
				ep.Step(best)
			}
		}
		return nil
	})
	if err != nil {
		return rec, err
	}
	if ops == 0 {
		return rec, fmt.Errorf("%s: no reward evaluations ran", name)
	}
	rec.Metrics["ops"] = float64(ops)
	rec.Metrics["ns_per_op"] = float64(ns / int64(ops))
	rec.Metrics["allocs_per_op"] = float64(allocs / uint64(ops))
	rec.Metrics["bytes_per_op"] = float64(bytes / uint64(ops))
	return rec, nil
}
