package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/rlplanner/rlplanner/internal/httpapi"
)

// serveConfig parameterizes the serving-latency harness (-serve).
type serveConfig struct {
	Instance string
	Engine   string
	Episodes int
	Seed     int64
	Conc     int
	Duration time.Duration
	Batch    int
	// Sweep enables the GOMAXPROCS scaling phase: the timed plan phase
	// repeats at GOMAXPROCS 1/2/4/8 (SweepDuration each) with mutex and
	// block profiling on, recording throughput scaling efficiency.
	Sweep         bool
	SweepDuration time.Duration
}

// serveBench stands up the live HTTP serving stack (the same handler
// rlplannerd mounts), trains the policy once through a warm-up request,
// then drives concurrent /api/plan clients for the configured duration
// and reports latency percentiles, throughput and allocation rates. When
// the server exposes /api/plan/batch, a second phase measures batched
// planning throughput with the same warm policy. Allocations are
// process-wide (server and harness client share the process), so
// allocs_per_op is an upper bound on the server-side cost, comparable
// across runs of the same harness.
func serveBench(cfg serveConfig) (record, error) {
	rec := newRecord("serve", runParams{
		Instance:   cfg.Instance,
		Engine:     cfg.Engine,
		Seed:       cfg.Seed,
		Clients:    cfg.Conc,
		Episodes:   cfg.Episodes,
		DurationNs: cfg.Duration.Nanoseconds(),
	})
	api := httpapi.New()
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	planBody, err := json.Marshal(map[string]interface{}{
		"instance": cfg.Instance,
		"engine":   cfg.Engine,
		"episodes": cfg.Episodes,
		"seed":     cfg.Seed,
	})
	if err != nil {
		return rec, err
	}
	client := srv.Client()
	if tr, ok := client.Transport.(*http.Transport); ok {
		// Enough idle conns for the main phase and the widest sweep
		// setting (2×8 clients at GOMAXPROCS=8).
		tr.MaxIdleConnsPerHost = max(cfg.Conc, 16) + 1
	}

	post := func(path string, body []byte) (int, error) {
		resp, err := client.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var sink json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&sink); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s response: %w", path, err)
		}
		return resp.StatusCode, nil
	}

	// Warm-up: the first request trains the policy; afterwards every hit
	// is the warm cached path the benchmark is about.
	if code, err := post("/api/plan", planBody); err != nil {
		return rec, err
	} else if code != http.StatusOK {
		return rec, fmt.Errorf("warm-up plan returned HTTP %d", code)
	}

	// Timed phase: cfg.Conc workers hammer /api/plan until the deadline,
	// each collecting its own latency samples (no shared state on the
	// request path).
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	all, elapsed, err := timedPlanPhase(post, planBody, cfg.Conc, cfg.Duration)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return rec, err
	}
	m := rec.Metrics
	m["elapsed_ns"] = float64(elapsed.Nanoseconds())
	putLatency(m, "", all, elapsed)
	m["allocs_per_op"] = float64((m1.Mallocs - m0.Mallocs) / uint64(len(all)))
	m["bytes_per_op"] = float64((m1.TotalAlloc - m0.TotalAlloc) / uint64(len(all)))
	fmt.Printf("serve: %d reqs in %s (%d clients): %.0f req/s, p50 %s, p99 %s, %d allocs/req\n",
		len(all), elapsed, cfg.Conc, m["req_per_s"], time.Duration(m["p50_ns"]),
		time.Duration(m["p99_ns"]), int(m["allocs_per_op"]))

	if cfg.Sweep {
		if err := serveSweepPhase(post, planBody, cfg, &rec); err != nil {
			return rec, err
		}
	}
	if cfg.Batch > 0 {
		rps, err := serveBatchPhase(post, cfg, planBody)
		if err != nil {
			return rec, err
		}
		rec.Params.Batch = cfg.Batch
		m["batch_plans_per_s"] = rps
		fmt.Printf("serve: batch(%d): %.0f plans/s\n", cfg.Batch, rps)
	}
	cold, warm, err := serveBootPhase(cfg, planBody)
	if err != nil {
		return rec, err
	}
	m["cold_boot_ns"] = float64(cold.Nanoseconds())
	m["warm_boot_ns"] = float64(warm.Nanoseconds())
	fmt.Printf("serve: time-to-first-plan: cold boot %s (train+persist), repo-warm boot %s (%.1fx)\n",
		cold, warm, float64(cold)/float64(warm))
	return rec, nil
}

// putLatency records a timed plan phase's request count, throughput and
// p50/p99 latency under prefix; all is sorted ascending.
func putLatency(m map[string]float64, prefix string, all []time.Duration, elapsed time.Duration) {
	m[prefix+"requests"] = float64(len(all))
	m[prefix+"req_per_s"] = float64(len(all)) / elapsed.Seconds()
	m[prefix+"p50_ns"] = float64(all[len(all)/2].Nanoseconds())
	m[prefix+"p99_ns"] = float64(all[len(all)*99/100].Nanoseconds())
}

// timedPlanPhase drives conc workers against /api/plan until the
// deadline and returns every observed latency, sorted ascending. Each
// worker collects its own samples: the only cross-worker state is the
// WaitGroup, so the harness itself adds no contention to the path it
// measures.
func timedPlanPhase(post func(string, []byte) (int, error), planBody []byte,
	conc int, duration time.Duration) ([]time.Duration, time.Duration, error) {
	deadline := time.Now().Add(duration)
	lat := make([][]time.Duration, conc)
	errs := make([]error, conc)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r0 := time.Now()
				code, err := post("/api/plan", planBody)
				if err != nil {
					errs[w] = err
					return
				}
				if code != http.StatusOK {
					errs[w] = fmt.Errorf("plan returned HTTP %d", code)
					return
				}
				lat[w] = append(lat[w], time.Since(r0))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return nil, elapsed, err
		}
	}
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return nil, elapsed, fmt.Errorf("no plan requests completed in %s", duration)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all, elapsed, nil
}

// serveSweepPhase reruns the timed plan phase at GOMAXPROCS 1/2/4/8
// (2×procs clients each, so every proc always has a runnable worker)
// with mutex and block profiling enabled, and records throughput,
// latency, scaling efficiency and the hottest contention frames. The
// process-wide GOMAXPROCS and profile rates are restored on return.
func serveSweepPhase(post func(string, []byte) (int, error), planBody []byte,
	cfg serveConfig, rec *record) error {
	orig := runtime.GOMAXPROCS(0)
	prevMutex := runtime.SetMutexProfileFraction(1)
	runtime.SetBlockProfileRate(10_000) // sample blocking events ≥10µs
	defer func() {
		runtime.GOMAXPROCS(orig)
		runtime.SetMutexProfileFraction(prevMutex)
		runtime.SetBlockProfileRate(0)
	}()

	m := rec.Metrics
	var base float64
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		conc := 2 * procs
		all, elapsed, err := timedPlanPhase(post, planBody, conc, cfg.SweepDuration)
		if err != nil {
			return fmt.Errorf("sweep GOMAXPROCS=%d: %w", procs, err)
		}
		pre := fmt.Sprintf("gomaxprocs_%d.", procs)
		putLatency(m, pre, all, elapsed)
		m[pre+"clients"] = float64(conc)
		rps := m[pre+"req_per_s"]
		if procs == 1 {
			base = rps
		}
		m[pre+"efficiency_ratio"] = rps / (base * float64(procs))
		fmt.Printf("serve: sweep GOMAXPROCS=%d (%d clients): %.0f req/s, p50 %s, p99 %s, efficiency %.2f\n",
			procs, conc, rps, time.Duration(m[pre+"p50_ns"]), time.Duration(m[pre+"p99_ns"]),
			m[pre+"efficiency_ratio"])
	}
	m["scaling_4x_ratio"] = m["gomaxprocs_4.req_per_s"] / base
	fmt.Printf("serve: sweep 4-proc scaling %.2fx on a %d-core host\n", m["scaling_4x_ratio"], rec.Host.NumCPU)
	mutex, block := profileTop("mutex", 5), profileTop("block", 5)
	rec.Lists = map[string][]string{"mutex_top": mutex, "block_top": block}
	for _, frame := range mutex {
		fmt.Printf("serve: mutex hot: %s\n", frame)
	}
	for _, frame := range block {
		fmt.Printf("serve: block hot: %s\n", frame)
	}
	return nil
}

// profileTop summarizes a runtime profile ("mutex" or "block") as its
// top n user-level frames by sample count. It parses the debug=1 text
// form: each sample is a "cycles count @ addr..." header followed by
// "#\taddr\tfunc+off\tfile:line" frames; the first frame outside
// runtime/sync internals names the contention site.
func profileTop(name string, n int) []string {
	p := pprof.Lookup(name)
	if p == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 1); err != nil {
		return nil
	}
	counts := map[string]int64{}
	var pending int64 // count of the sample block being scanned, 0 = attributed
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "#") {
			pending = 0
			fields := strings.Fields(line)
			if len(fields) >= 3 && fields[2] == "@" {
				if c, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					pending = c
				}
			}
			continue
		}
		if pending == 0 {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		fn := fields[2]
		if i := strings.LastIndex(fn, "+"); i > 0 {
			fn = fn[:i]
		}
		if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "sync.") ||
			strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/") {
			continue
		}
		counts[fn] += pending
		pending = 0
	}
	type entry struct {
		fn string
		c  int64
	}
	var entries []entry
	for fn, c := range counts {
		entries = append(entries, entry{fn, c})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].c != entries[j].c {
			return entries[i].c > entries[j].c
		}
		return entries[i].fn < entries[j].fn
	})
	if len(entries) > n {
		entries = entries[:n]
	}
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = fmt.Sprintf("%s n=%d", e.fn, e.c)
	}
	return out
}

// serveBootPhase measures time-to-first-plan twice over one durable
// policy directory: a cold boot (empty directory, the plan trains and
// writes the artifact through) and a warm boot (a new server over the
// trained directory, the plan restores the artifact from disk). Both
// timings span server construction — including the warm boot's
// verify-everything repository scan — through the first 200 response.
func serveBootPhase(cfg serveConfig, planBody []byte) (cold, warm time.Duration, err error) {
	dir, err := os.MkdirTemp("", "benchharness-policy-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	firstPlan := func() (time.Duration, error) {
		t0 := time.Now()
		srv := httptest.NewServer(httpapi.New(httpapi.WithPolicyDir(dir)).Handler())
		defer srv.Close()
		resp, err := srv.Client().Post(srv.URL+"/api/plan", "application/json", bytes.NewReader(planBody))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var sink json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&sink); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("boot-phase plan returned HTTP %d", resp.StatusCode)
		}
		return time.Since(t0), nil
	}
	if cold, err = firstPlan(); err != nil {
		return 0, 0, fmt.Errorf("cold boot: %w", err)
	}
	if warm, err = firstPlan(); err != nil {
		return 0, 0, fmt.Errorf("warm boot: %w", err)
	}
	return cold, warm, nil
}

// serveBatchPhase measures /api/plan/batch throughput in plans per
// second.
func serveBatchPhase(post func(string, []byte) (int, error), cfg serveConfig, planBody []byte) (float64, error) {
	var req map[string]interface{}
	if err := json.Unmarshal(planBody, &req); err != nil {
		return 0, err
	}
	req["starts"] = make([]string, cfg.Batch) // "" = trained start per item
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	code, err := post("/api/plan/batch", body)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("batch plan returned HTTP %d", code)
	}
	deadline := time.Now().Add(cfg.Duration)
	plans := 0
	t0 := time.Now()
	for time.Now().Before(deadline) {
		if code, err := post("/api/plan/batch", body); err != nil {
			return 0, err
		} else if code != http.StatusOK {
			return 0, fmt.Errorf("batch plan returned HTTP %d", code)
		}
		plans += cfg.Batch
	}
	return float64(plans) / time.Since(t0).Seconds(), nil
}
