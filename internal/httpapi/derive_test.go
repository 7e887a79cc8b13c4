package httpapi

import (
	"context"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"github.com/rlplanner/rlplanner"
)

// perturbSpec renames k leaf items (not the default start, not
// referenced by any prerequisite) of an instance spec, simulating a
// catalog revision of k items with unchanged topics.
func perturbSpec(t *testing.T, inst *rlplanner.Instance, k int) rlplanner.InstanceSpec {
	t.Helper()
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
		t.Fatalf("could only rename %d of %d items", renamed, k)
	}
	return spec
}

func TestDeriveEndpoint(t *testing.T) {
	var trained []string
	s := New()
	s.onTrain = func(key string) { trained = append(trained, key) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Cold-train a source policy on the CS program.
	src := map[string]interface{}{
		"instance": "Univ-1 M.S. CS", "engine": "sarsa", "episodes": 90, "seed": 1,
	}
	var plan rlplanner.Plan
	if code := doJSON(t, "POST", ts.URL+"/api/plan", src, &plan); code != 200 {
		t.Fatalf("cold plan status %d", code)
	}
	srcKey := planRequest{Instance: "Univ-1 M.S. CS", Engine: "sarsa", Episodes: 90, Seed: 1}.policyKey("sarsa")

	// Derive onto the sibling DS-CT program.
	target := map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT", "engine": "sarsa", "episodes": 90, "seed": 1,
	}
	var info deriveInfo
	deriveURL := ts.URL + "/api/policies/" + url.PathEscape(srcKey) + "/derive"
	if code := doJSON(t, "POST", deriveURL, target, &info); code != 201 {
		t.Fatalf("derive status %d (%+v)", code, info)
	}
	if info.Source != "Univ-1 M.S. CS" {
		t.Fatalf("derive source = %q", info.Source)
	}
	if info.Distance <= 0 || info.Distance >= 1 {
		t.Fatalf("derive distance = %v", info.Distance)
	}
	if info.WarmEpisodes >= info.ColdEpisodes {
		t.Fatalf("warm episodes %d did not shrink from cold %d", info.WarmEpisodes, info.ColdEpisodes)
	}

	// The derived policy is stored under the target's plan key: an
	// identical plan request serves from cache with no new training.
	before := len(trained)
	if code := doJSON(t, "POST", ts.URL+"/api/plan", target, &plan); code != 200 {
		t.Fatalf("plan from derived policy status %d", code)
	}
	if len(plan.Steps) == 0 {
		t.Fatal("derived policy produced an empty plan")
	}
	if len(trained) != before {
		t.Fatalf("plan after derive trained again (%d runs)", len(trained)-before)
	}

	if code := doJSON(t, "POST", ts.URL+"/api/policies/nope/derive", target, &struct{}{}); code != 404 {
		t.Fatalf("unknown source policy status %d", code)
	}
}

func TestAutoDeriveOnFingerprintNearMiss(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Cold-train on the original catalog.
	reqBody := map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT", "engine": "sarsa", "episodes": 90, "seed": 1,
	}
	var plan rlplanner.Plan
	if code := doJSON(t, "POST", ts.URL+"/api/plan", reqBody, &plan); code != 200 {
		t.Fatalf("cold plan status %d", code)
	}

	// Register a 5-item revision of the catalog and plan against it: the
	// cold start must warm-start from the cached original
	// (train_warm_starts advances by one).
	orig, err := rlplanner.InstanceByName("Univ-1 M.S. DS-CT")
	if err != nil {
		t.Fatal(err)
	}
	spec := perturbSpec(t, orig, 5)
	if code := doJSON(t, "POST", ts.URL+"/api/instances", spec, &struct{}{}); code != 201 {
		t.Fatalf("create perturbed instance status %d", code)
	}

	var m0 map[string]int64
	doJSON(t, "GET", ts.URL+"/api/metrics", nil, &m0)
	reqBody["instance"] = spec.Name
	if code := doJSON(t, "POST", ts.URL+"/api/plan", reqBody, &plan); code != 200 {
		t.Fatalf("perturbed plan status %d", code)
	}
	if len(plan.Steps) == 0 {
		t.Fatal("warm-started policy produced an empty plan")
	}
	var m1 map[string]int64
	doJSON(t, "GET", ts.URL+"/api/metrics", nil, &m1)
	if got := m1["train_warm_starts"] - m0["train_warm_starts"]; got != 1 {
		t.Fatalf("train_warm_starts advanced by %d, want 1", got)
	}
	if m1["train_runs"] <= m0["train_runs"] {
		t.Fatal("train_runs did not advance for the warm-started run")
	}
}

func TestAutoDeriveDisabled(t *testing.T) {
	s := New(WithAutoDerive(false))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqBody := map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT", "engine": "sarsa", "episodes": 60, "seed": 1,
	}
	var plan rlplanner.Plan
	if code := doJSON(t, "POST", ts.URL+"/api/plan", reqBody, &plan); code != 200 {
		t.Fatalf("cold plan status %d", code)
	}
	orig, err := rlplanner.InstanceByName("Univ-1 M.S. DS-CT")
	if err != nil {
		t.Fatal(err)
	}
	spec := perturbSpec(t, orig, 5)
	if code := doJSON(t, "POST", ts.URL+"/api/instances", spec, &struct{}{}); code != 201 {
		t.Fatalf("create perturbed instance status %d", code)
	}
	var m0 map[string]int64
	doJSON(t, "GET", ts.URL+"/api/metrics", nil, &m0)
	reqBody["instance"] = spec.Name
	if code := doJSON(t, "POST", ts.URL+"/api/plan", reqBody, &plan); code != 200 {
		t.Fatalf("perturbed plan status %d", code)
	}
	var m1 map[string]int64
	doJSON(t, "GET", ts.URL+"/api/metrics", nil, &m1)
	if got := m1["train_warm_starts"] - m0["train_warm_starts"]; got != 0 {
		t.Fatalf("auto-derive disabled but train_warm_starts advanced by %d", got)
	}
}

// TestTrainWorkersSamePolicy: the worker count must not change the
// served plan — the parallel protocol is bit-identical, and the policy
// cache key deliberately excludes it.
func TestTrainWorkersSamePolicy(t *testing.T) {
	planFor := func(workers int) rlplanner.Plan {
		t.Helper()
		s := New(WithTrainWorkers(workers))
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		var plan rlplanner.Plan
		code := doJSON(t, "POST", ts.URL+"/api/plan", map[string]interface{}{
			"instance": "Univ-1 M.S. DS-CT", "engine": "sarsa", "episodes": 90, "seed": 1,
		}, &plan)
		if code != 200 {
			t.Fatalf("workers=%d: status %d", workers, code)
		}
		return plan
	}
	a, b := planFor(1), planFor(4)
	if len(a.Steps) == 0 || len(a.Steps) != len(b.Steps) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		if a.Steps[i].ID != b.Steps[i].ID {
			t.Fatalf("step %d differs: %q vs %q", i, a.Steps[i].ID, b.Steps[i].ID)
		}
	}
}

// TestScansCountNoCacheHits: the nearest-source scan behind every cold
// auto-derive request and the /api/policies listing read the policy
// store without counting hits, so three cold plans and a listing report
// no hit at all and one miss per plan.
func TestScansCountNoCacheHits(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	programs := []string{"Univ-1 M.S. CS", "Univ-1 M.S. DS-CT", "Univ-1 M.S. Cybersecurity"}
	for _, name := range programs {
		var plan rlplanner.Plan
		body := map[string]interface{}{"instance": name, "engine": "sarsa", "episodes": 60, "seed": 1}
		if code := doJSON(t, "POST", ts.URL+"/api/plan", body, &plan); code != 200 {
			t.Fatalf("%s: cold plan status %d", name, code)
		}
	}
	var pols []policyInfo
	if code := doJSON(t, "GET", ts.URL+"/api/policies", nil, &pols); code != 200 || len(pols) != len(programs) {
		t.Fatalf("policies status %d, %d listed", code, len(pols))
	}
	var m map[string]int64
	doJSON(t, "GET", ts.URL+"/api/metrics", nil, &m)
	if m["policy_cache_hits"] != 0 || m["policy_cache_misses"] != int64(len(programs)) {
		t.Fatalf("policy_cache_hits = %d, policy_cache_misses = %d; want 0 and %d",
			m["policy_cache_hits"], m["policy_cache_misses"], len(programs))
	}
}

// TestNearestSourceTieBreaksByKey: policies trained on one catalog
// under different seeds are equidistant from any target, and the
// warm-start source among them is the smallest key, whichever the store
// holds first. A one-shard store makes the store's own order the
// insertion order.
func TestNearestSourceTieBreaksByKey(t *testing.T) {
	orig, err := rlplanner.InstanceByName(instName)
	if err != nil {
		t.Fatal(err)
	}
	target, err := rlplanner.NewInstance(perturbSpec(t, orig, 5))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 2)
	pols := make([]*rlplanner.Policy, 2)
	for i := range pols {
		req := planRequest{Instance: instName, Episodes: 40, Seed: int64(i + 1)}
		keys[i] = req.policyKey("sarsa")
		if pols[i], err = rlplanner.Train(context.Background(), orig, "sarsa", req.options()); err != nil {
			t.Fatal(err)
		}
	}
	want := pols[0]
	if keys[1] < keys[0] {
		want = pols[1]
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		s := New(WithPolicyCacheSize(8))
		for _, i := range order {
			s.policies.Add(keys[i], pols[i])
		}
		if got := s.nearestSource(target, "sarsa"); got != want {
			t.Fatalf("insertion order %v: nearest source is not the smallest key", order)
		}
	}
}
