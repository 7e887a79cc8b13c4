package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/rlplanner/rlplanner"
)

// instanceItems fetches the catalog of a built-in instance over the API
// so batch tests can use real item ids without hard-coding the dataset.
func instanceItems(t *testing.T, baseURL, name string) []rlplanner.Item {
	t.Helper()
	var detail struct {
		Items []rlplanner.Item `json:"items"`
	}
	if code := doJSON(t, "GET", baseURL+"/api/instances/"+name, nil, &detail); code != 200 {
		t.Fatalf("instance %q: status %d", name, code)
	}
	if len(detail.Items) == 0 {
		t.Fatalf("instance %q has no items", name)
	}
	return detail.Items
}

func TestBatchPlanEndpoint(t *testing.T) {
	ts := testServer(t)
	const inst = "Univ-1 M.S. DS-CT"
	items := instanceItems(t, ts.URL, inst)

	var resp batchResponse
	code := doJSON(t, "POST", ts.URL+"/api/plan/batch", map[string]interface{}{
		"instance": inst,
		"engine":   "sarsa",
		"episodes": 40,
		"seed":     1,
		"starts":   []string{"", items[0].ID, "No Such Item", items[1].ID},
	}, &resp)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Instance != inst || resp.Engine != "sarsa" {
		t.Fatalf("echo = %s/%s", resp.Instance, resp.Engine)
	}
	if len(resp.Items) != 4 {
		t.Fatalf("items = %d, want 4 (index-aligned with starts)", len(resp.Items))
	}
	if resp.Errors != 1 {
		t.Fatalf("errors = %d, want 1 (the unknown start)", resp.Errors)
	}

	bad := resp.Items[2]
	if bad.Plan != nil || bad.Status != http.StatusBadRequest || bad.Error == "" {
		t.Fatalf("unknown start item = %+v, want per-item 400", bad)
	}
	for i, it := range []batchItem{resp.Items[0], resp.Items[1], resp.Items[3]} {
		if it.Error != "" || it.Plan == nil {
			t.Fatalf("item %d failed: %+v", i, it)
		}
		if it.Plan.ServedBy != "sarsa" || it.Plan.Degraded {
			t.Fatalf("item %d provenance = %s degraded=%v", i, it.Plan.ServedBy, it.Plan.Degraded)
		}
		if len(it.Plan.Steps) == 0 {
			t.Fatalf("item %d: empty plan", i)
		}
	}
	// An explicit start must actually steer the walk.
	if got := resp.Items[1].Plan.Steps[0].ID; got != items[0].ID {
		t.Fatalf("start %q produced plan starting at %q", items[0].ID, got)
	}
	if got := resp.Items[3].Plan.Steps[0].ID; got != items[1].ID {
		t.Fatalf("start %q produced plan starting at %q", items[1].ID, got)
	}
}

func TestBatchPlanValidation(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name string
		body map[string]interface{}
		want int
	}{
		{"no starts", map[string]interface{}{
			"instance": "Univ-1 M.S. DS-CT"}, 400},
		{"oversized batch", map[string]interface{}{
			"instance": "Univ-1 M.S. DS-CT",
			"starts":   make([]string, MaxBatchItems+1)}, 400},
		{"unknown instance", map[string]interface{}{
			"instance": "Hogwarts", "starts": []string{""}}, 404},
		{"unknown engine", map[string]interface{}{
			"instance": "Univ-1 M.S. DS-CT", "engine": "oracle",
			"starts": []string{""}}, 400},
	}
	for _, tc := range cases {
		if code := doJSON(t, "POST", ts.URL+"/api/plan/batch", tc.body, &struct{}{}); code != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
}

// TestBatchAndPlanConcurrently interleaves single-plan and batch
// requests against the same and different instances — the -race hammer
// over the shared policy store, environment cache and episode pool.
func TestBatchAndPlanConcurrently(t *testing.T) {
	ts := testServer(t)
	insts := []string{"Univ-1 M.S. DS-CT", "Univ-2 M.S. DS"}
	starts := map[string][]string{}
	for _, name := range insts {
		items := instanceItems(t, ts.URL, name)
		starts[name] = []string{"", items[0].ID, items[len(items)/2].ID}
	}

	const rounds = 6
	var wg sync.WaitGroup
	for _, name := range insts {
		for r := 0; r < rounds; r++ {
			wg.Add(2)
			go func(name string) {
				defer wg.Done()
				var out planResponse
				code := doJSON(t, "POST", ts.URL+"/api/plan", map[string]interface{}{
					"instance": name, "episodes": 40, "seed": 1,
				}, &out)
				if code != 200 {
					t.Errorf("plan %s: status %d", name, code)
				}
			}(name)
			go func(name string) {
				defer wg.Done()
				var out batchResponse
				code := doJSON(t, "POST", ts.URL+"/api/plan/batch", map[string]interface{}{
					"instance": name, "episodes": 40, "seed": 1, "starts": starts[name],
				}, &out)
				if code != 200 {
					t.Errorf("batch %s: status %d", name, code)
				}
				if out.Errors != 0 {
					t.Errorf("batch %s: %d item errors: %+v", name, out.Errors, out.Items)
				}
			}(name)
		}
	}
	wg.Wait()
}

// TestBatchMetricsExposeCaches checks that serving traffic surfaces the
// policy- and environment-cache counters on /api/metrics.
func TestBatchMetricsExposeCaches(t *testing.T) {
	ts := testServer(t)
	var out batchResponse
	body := map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT", "episodes": 40, "seed": 2,
		"starts": []string{"", ""},
	}
	if code := doJSON(t, "POST", ts.URL+"/api/plan/batch", body, &out); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	var m map[string]int64
	if code := doJSON(t, "GET", ts.URL+"/api/metrics", nil, &m); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	for _, key := range []string{
		"policy_cache_hits", "policy_cache_misses", "policy_cache_size",
		"env_cache_hits", "env_cache_misses", "env_cache_size",
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("metrics missing %q: %v", key, m)
		}
	}
	if m["policy_cache_size"] < 1 {
		t.Fatalf("policy cache empty after a batch: %v", m)
	}
	if m["env_cache_misses"]+m["env_cache_hits"] == 0 {
		t.Fatalf("env cache never consulted: %v", m)
	}
}

// goroutineID returns the calling goroutine's id, read from the header
// line of its stack trace ("goroutine 17 [running]:").
func goroutineID(t *testing.T) uint64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		t.Fatalf("goroutine id from %q: %v", f, err)
	}
	return id
}

// serve runs one request through the handler on the calling goroutine
// and decodes the response into out.
func serve(t *testing.T, h http.Handler, method, path string, body, out interface{}) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("%s %s: decode %q: %v", method, path, rec.Body.String(), err)
	}
	return rec.Code
}

// TestOneStartBatchRunsOnRequestGoroutine checks that a batch of one
// start runs on the goroutine serving the request: its cold policy
// trains there, so the onTrain hook sees the caller's goroutine.
func TestOneStartBatchRunsOnRequestGoroutine(t *testing.T) {
	s := New()
	var trainedOn atomic.Uint64
	s.onTrain = func(string) { trainedOn.Store(goroutineID(t)) }
	var out batchResponse
	caller := goroutineID(t)
	code := serve(t, s.Handler(), "POST", "/api/plan/batch", map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT", "episodes": 40, "seed": 9, "starts": []string{""},
	}, &out)
	if code != 200 || out.Errors != 0 {
		t.Fatalf("status %d, %d item errors", code, out.Errors)
	}
	if got := trainedOn.Load(); got != caller {
		t.Fatalf("the policy trained on goroutine %d, the request was served on %d", got, caller)
	}
}

// TestFullBatchMatchesSingleStarts runs a batch of MaxBatchItems starts,
// which fans out over every worker, and checks each item, index-aligned,
// against the same start served on its own. /api/plan walks only from
// the policy's trained start (its "start" field selects another policy),
// so a start is served on its own as a one-start batch, and the trained
// start through /api/plan as well. Run it under -race.
func TestFullBatchMatchesSingleStarts(t *testing.T) {
	h := New().Handler()
	const inst = "Paris"
	var detail struct {
		Items []rlplanner.Item `json:"items"`
	}
	if code := serve(t, h, "GET", "/api/instances/"+inst, nil, &detail); code != 200 {
		t.Fatalf("instance %s: status %d", inst, code)
	}
	starts := make([]string, MaxBatchItems)
	for i := range starts {
		switch {
		case i%97 == 0:
			starts[i] = ""
		case i%89 == 0:
			starts[i] = "No Such POI"
		default:
			starts[i] = detail.Items[i%len(detail.Items)].ID
		}
	}
	req := map[string]interface{}{"instance": inst, "episodes": 40, "seed": 4}
	type rawBatch struct {
		Items []json.RawMessage `json:"items"`
	}
	var full rawBatch
	req["starts"] = starts
	if code := serve(t, h, "POST", "/api/plan/batch", req, &full); code != 200 {
		t.Fatalf("full batch: status %d", code)
	}
	if len(full.Items) != len(starts) {
		t.Fatalf("%d items for %d starts", len(full.Items), len(starts))
	}
	var plan json.RawMessage
	delete(req, "starts")
	if code := serve(t, h, "POST", "/api/plan", req, &plan); code != 200 {
		t.Fatalf("plan: status %d", code)
	}
	for i, start := range starts {
		var one rawBatch
		req["starts"] = []string{start}
		if code := serve(t, h, "POST", "/api/plan/batch", req, &one); code != 200 || len(one.Items) != 1 {
			t.Fatalf("start %q alone: status %d, %d items", start, code, len(one.Items))
		}
		if !bytes.Equal(full.Items[i], one.Items[0]) {
			t.Fatalf("item %d (start %q):\n batch %s\n alone %s", i, start, full.Items[i], one.Items[0])
		}
		if start == "" {
			var it struct {
				Plan json.RawMessage `json:"plan"`
			}
			if err := json.Unmarshal(full.Items[i], &it); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(it.Plan, bytes.TrimSpace(plan)) {
				t.Fatalf("item %d (trained start):\n batch %s\n /api/plan %s", i, it.Plan, plan)
			}
		}
	}
}
