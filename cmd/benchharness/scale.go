package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/httpapi"
	"github.com/rlplanner/rlplanner/internal/mdp"
)

// scaleConfig parameterizes the catalog-scale harness (-scale).
type scaleConfig struct {
	Sizes    []int
	Episodes int // 0 = a per-size budget that keeps every point seconds-long
	Seed     int64
	Serve    int // timed /api/plan requests per point
}

// scaleEpisodeBudget keeps every size point seconds-long: the per-episode
// cost is dominated by O(items) candidate-reward sweeps per step, so the
// episode budget shrinks inversely with the catalog.
func scaleEpisodeBudget(items int) int {
	e := 2_000_000 / items
	if e < 2 {
		e = 2
	}
	if e > 64 {
		e = 64
	}
	return e
}

// scaleBench measures one generate → train → serve pass per catalog
// size. Training and the environment go through the engine layer (the
// cached-environment path rlplannerd uses); serving goes through the
// real HTTP stack — the instance spec is uploaded to an in-process
// server, the trained artifact imported, and /api/plan driven against
// the warm cache — so the record covers the datagen → train → /api/plan
// pipeline end to end.
func scaleBench(cfg scaleConfig) (record, error) {
	rec := newRecord("scale", runParams{Engine: "sarsa", Seed: cfg.Seed})
	if cfg.Serve <= 0 {
		cfg.Serve = scaleServeRequests
	}
	ctx := context.Background()
	for _, n := range cfg.Sizes {
		if err := scalePointAt(ctx, n, cfg, rec.Metrics); err != nil {
			return rec, fmt.Errorf("scale %d: %w", n, err)
		}
	}
	return rec, nil
}

// scalePointAt records one catalog size's point under "items_<n>.":
// generation, environment build (distance store included), training,
// the per-candidate data-plane step cost, end-to-end /api/plan latency,
// and the resident footprint of the three compressed structures next to
// their dense-layout equivalent.
func scalePointAt(ctx context.Context, n int, cfg scaleConfig, metrics map[string]float64) error {
	pt := map[string]float64{}
	params := synth.Params{
		Name:  fmt.Sprintf("synthetic-%d", n),
		Items: n,
		Geo:   true,
		Seed:  cfg.Seed,
	}

	t0 := time.Now()
	inst, err := synth.Generate(params)
	if err != nil {
		return err
	}
	pt["gen_ns"] = float64(time.Since(t0).Nanoseconds())
	topics := inst.Catalog.Vocabulary().Len()
	pt["topics"] = float64(topics)

	episodes := cfg.Episodes
	if episodes <= 0 {
		episodes = scaleEpisodeBudget(n)
	}
	opts := core.Options{Episodes: episodes, Seed: cfg.Seed}

	t0 = time.Now()
	env, err := engine.EnvFor(ctx, inst, opts)
	if err != nil {
		return err
	}
	pt["env_ns"] = float64(time.Since(t0).Nanoseconds())

	t0 = time.Now()
	pol, err := engine.Train(ctx, "sarsa", inst, opts)
	if err != nil {
		return err
	}
	trainNs := time.Since(t0).Nanoseconds()
	pt["train_ns"] = float64(trainNs)
	pt["episodes"] = float64(pol.Episodes())
	pt["episodes_per_s"] = pt["episodes"] / (float64(trainNs) / 1e9)

	// Resident footprint of the three data-plane structures, from their
	// own accounting; the dense-layout equivalent (float64 n×n Q, float32
	// n×n distance matrix, vocabulary-wide topic words) is arithmetic.
	vp, ok := pol.(engine.ValuePolicy)
	if !ok {
		return fmt.Errorf("sarsa policy carries no values")
	}
	q := vp.Values().Q
	qBytes, distBytes, topicsBytes := engine.PolicyBytes(pol), env.DistStoreBytes(), 0
	for i := 0; i < inst.Catalog.Len(); i++ {
		topicsBytes += inst.Catalog.At(i).Topics.SizeBytes()
	}
	nn := int64(n) * int64(n)
	denseBytes := 8*nn + 4*nn + int64(n)*int64((topics+63)/64)*8
	pt["q_bytes"] = float64(qBytes)
	pt["q_stored"] = float64(q.Stored())
	pt["q_dense"] = 0
	if q.IsDense() {
		pt["q_dense"] = 1
	}
	pt["dist_bytes"] = float64(distBytes)
	pt["topics_bytes"] = float64(topicsBytes)
	pt["resident_bytes"] = float64(qBytes + distBytes + topicsBytes)
	pt["dense_equiv_bytes"] = float64(denseBytes)

	// Data-plane step cost: greedy episodes over the live environment,
	// one op per candidate-reward evaluation (the same shape as the
	// committed hotpath records, comparable across sizes).
	evals, stepNs, err := scaleStepBench(inst, env)
	if err != nil {
		return err
	}
	pt["reward_evals"] = float64(evals)
	pt["step_ns"] = float64(stepNs)

	// End-to-end serve: upload the instance spec and the trained
	// artifact to an in-process HTTP server, then time /api/plan against
	// the warm policy cache.
	fb0 := geo.FallbackTotal()
	p50, err := scaleServe(inst.Name, params, pol, cfg.Serve)
	if err != nil {
		return err
	}
	pt["serve_p50_ns"] = float64(p50)
	pt["dist_fallbacks"] = float64(geo.FallbackTotal() - fb0)

	for name, v := range pt {
		metrics[fmt.Sprintf("items_%d.%s", n, name)] = v
	}
	fmt.Printf("scale: %6d items: gen %s, env %s, train %s (%d episodes, %.0f ep/s), step %dns, plan p50 %s, resident %s (q %s + dist %s + topics %s; dense layout %s)\n",
		n, time.Duration(pt["gen_ns"]).Round(time.Millisecond),
		time.Duration(pt["env_ns"]).Round(time.Millisecond),
		time.Duration(trainNs).Round(time.Millisecond),
		int(pt["episodes"]), pt["episodes_per_s"], stepNs,
		time.Duration(p50).Round(time.Microsecond),
		fmtBytes(int64(qBytes+distBytes+topicsBytes)), fmtBytes(int64(qBytes)),
		fmtBytes(int64(distBytes)), fmtBytes(int64(topicsBytes)), fmtBytes(denseBytes))
	return nil
}

// scaleStepBench runs greedy reward-maximizing episodes until enough
// candidate evaluations accumulate for a stable per-op figure.
func scaleStepBench(inst *dataset.Instance, env *mdp.Env) (int, int64, error) {
	ep, err := env.Start(inst.StartIndex())
	if err != nil {
		return 0, 0, err
	}
	const targetEvals = 200_000
	evals := 0
	var cands []int
	t0 := time.Now()
	for evals < targetEvals {
		if err := ep.Reset(inst.StartIndex()); err != nil {
			return 0, 0, err
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
				evals++
			}
			ep.Step(best)
		}
	}
	ns := time.Since(t0).Nanoseconds()
	if evals == 0 {
		return 0, 0, fmt.Errorf("no reward evaluations ran")
	}
	return evals, ns / int64(evals), nil
}

// scaleServeRequests is how many /api/plan requests a scale point times
// by default. On a 2-vCPU host the median of ten requests with no
// warm-up read 125–417 µs at 100 000 items over four runs of the same
// code; 101 requests after a warm-up read 101–113 µs over two.
const scaleServeRequests = 101

// scaleServe drives the real HTTP pipeline for one instance: the public
// generator reproduces the same catalog (equal params generate equal
// instances, so the artifact's fingerprint matches), the spec uploads
// via POST /api/instances, the artifact via /api/policies/import, and
// after one untimed warm-up request (the first request sets up the
// connection and the serving path's pools) the warm /api/plan path is
// timed over requests requests and their median returned.
func scaleServe(name string, params synth.Params, pol engine.Policy, requests int) (int64, error) {
	pub, err := rlplanner.GenerateInstance(rlplanner.GenParams{
		Name:  params.Name,
		Items: params.Items,
		Geo:   true,
		Seed:  params.Seed,
	})
	if err != nil {
		return 0, err
	}
	api := httpapi.New()
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	client := srv.Client()

	var spec bytes.Buffer
	if err := pub.WriteJSON(&spec); err != nil {
		return 0, err
	}
	if err := scalePost(client, srv.URL+"/api/instances", &spec, http.StatusCreated); err != nil {
		return 0, fmt.Errorf("upload instance: %w", err)
	}

	var artifact bytes.Buffer
	if err := pol.Save(&artifact); err != nil {
		return 0, err
	}
	if err := scalePost(client, srv.URL+"/api/policies/import?instance="+name, &artifact, http.StatusCreated); err != nil {
		return 0, fmt.Errorf("import artifact: %w", err)
	}

	body, err := json.Marshal(map[string]string{"instance": name})
	if err != nil {
		return 0, err
	}
	if err := scalePost(client, srv.URL+"/api/plan", bytes.NewReader(body), http.StatusOK); err != nil {
		return 0, fmt.Errorf("warm-up plan: %w", err)
	}
	lat := make([]int64, 0, requests)
	for i := 0; i < requests; i++ {
		t0 := time.Now()
		if err := scalePost(client, srv.URL+"/api/plan", bytes.NewReader(body), http.StatusOK); err != nil {
			return 0, fmt.Errorf("plan: %w", err)
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2], nil
}

// scalePost posts body and checks the status, draining the response.
func scalePost(client *http.Client, url string, body interface{ Read([]byte) (int, error) }, want int) error {
	resp, err := client.Post(url, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var sink json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&sink); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d (want %d): %.200s", resp.StatusCode, want, sink)
	}
	return nil
}

// fmtBytes renders a byte count in the nearest binary unit.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
