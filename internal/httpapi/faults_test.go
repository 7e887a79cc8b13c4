package httpapi

// Full-stack fault-injection suite: a scriptable fault engine registered
// in the real solver registry drives the production serving path —
// singleflight store, panic guard, retry breaker, admission semaphore,
// gold fallback — through a live HTTP server. Run with -race; the
// daemon must answer every fault with a degraded plan or a clean 5xx,
// never crash.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/resilience/faultinject"
)

const univ1 = "Univ-1 M.S. DS-CT"

// degradedPlan decodes a plan response together with its provenance
// tags.
type degradedPlan struct {
	rlplanner.Plan
	ServedBy       string `json:"served_by"`
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason"`
}

// faultServer builds a server with resilience options and a live
// listener.
func faultServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(opts...).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// postPlan fires one plan request without t.Fatal, so it is safe from
// any goroutine; the caller asserts on the returned code.
func postPlan(ts *httptest.Server, engine string, seed int64) (int, degradedPlan, http.Header, error) {
	var out degradedPlan
	body := struct {
		Instance string `json:"instance"`
		Engine   string `json:"engine"`
		Seed     int64  `json:"seed"`
	}{univ1, engine, seed}
	buf, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+"/api/plan", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		return 0, out, nil, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			return resp.StatusCode, out, resp.Header, err
		}
	}
	return resp.StatusCode, out, resp.Header, nil
}

// metricsSnapshot reads /api/metrics.
func metricsSnapshot(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	var m map[string]int64
	if code := doJSON(t, "GET", ts.URL+"/api/metrics", nil, &m); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	return m
}

// TestPanicFallsBackToGold: a panicking engine must cost exactly one
// request nothing — the ladder answers with a degraded gold plan and
// the daemon keeps serving.
func TestPanicFallsBackToGold(t *testing.T) {
	fe, cleanup := faultinject.New("fault-panic")
	t.Cleanup(cleanup)
	fe.Set(faultinject.Panic)
	ts := faultServer(t)

	code, plan, _, err := postPlan(ts, "fault-panic", 0)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 {
		t.Fatalf("status %d, want 200 via fallback", code)
	}
	if plan.ServedBy != "gold" || !plan.Degraded {
		t.Fatalf("served_by=%q degraded=%v, want gold/true", plan.ServedBy, plan.Degraded)
	}
	if plan.DegradedReason != "engine panicked" {
		t.Fatalf("degraded_reason = %q", plan.DegradedReason)
	}
	if len(plan.Steps) == 0 {
		t.Fatal("fallback plan is empty")
	}

	// The process survived: read endpoints still answer.
	if code := doJSON(t, "GET", ts.URL+"/api/engines", nil, &struct{}{}); code != 200 {
		t.Fatalf("daemon unhealthy after panic: %d", code)
	}
	m := metricsSnapshot(t, ts)
	if m["panics"] < 1 || m["fallbacks"] < 1 {
		t.Fatalf("metrics = %v, want panics>=1 fallbacks>=1", m)
	}

	// Every /api/plan/batch item takes the same rung. A new seed is a new
	// policy key, so the batch's own training run panics.
	starts := []string{"", "CS 675", ""}
	var batch struct {
		Items []struct {
			Plan  *degradedPlan `json:"plan"`
			Error string        `json:"error"`
		} `json:"items"`
	}
	if code := doJSON(t, "POST", ts.URL+"/api/plan/batch", map[string]interface{}{
		"instance": univ1, "engine": "fault-panic", "seed": 1, "starts": starts,
	}, &batch); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	if len(batch.Items) != len(starts) {
		t.Fatalf("batch returned %d items, want %d", len(batch.Items), len(starts))
	}
	for i, it := range batch.Items {
		if it.Plan == nil || it.Plan.ServedBy != "gold" || !it.Plan.Degraded || len(it.Plan.Steps) == 0 {
			t.Fatalf("item %d = %+v, want a non-empty degraded gold plan", i, it)
		}
	}
	if got := metricsSnapshot(t, ts)["fallbacks"] - m["fallbacks"]; got != int64(len(starts)) {
		t.Fatalf("fallbacks rose by %d over the batch, want %d", got, len(starts))
	}
}

// TestHangFallsBackWithinBudget: an engine that never returns must be
// cut off by the training budget and answered degraded within
// budget + 1s (the acceptance bound).
func TestHangFallsBackWithinBudget(t *testing.T) {
	fe, cleanup := faultinject.New("fault-hang")
	t.Cleanup(cleanup)
	fe.Set(faultinject.Hang)
	const budget = 150 * time.Millisecond
	ts := faultServer(t, WithTrainBudget(budget))

	start := time.Now()
	code, plan, _, err := postPlan(ts, "fault-hang", 0)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 || plan.ServedBy != "gold" || !plan.Degraded {
		t.Fatalf("status=%d served_by=%q degraded=%v, want 200/gold/true", code, plan.ServedBy, plan.Degraded)
	}
	if plan.DegradedReason != "training deadline exceeded" {
		t.Fatalf("degraded_reason = %q", plan.DegradedReason)
	}
	if elapsed > budget+time.Second {
		t.Fatalf("response took %s, want <= budget+1s", elapsed)
	}
	if m := metricsSnapshot(t, ts); m["timeouts"] < 1 {
		t.Fatalf("metrics = %v, want timeouts>=1", m)
	}
}

// TestMalformedPolicyEvictedAndBreakerHolds: a policy that detonates at
// Recommend time is served degraded, evicted from the cache, and its
// key backs off — a second request inside the window is answered by the
// fallback without retraining the bad engine.
func TestMalformedPolicyEvictedAndBreakerHolds(t *testing.T) {
	fe, cleanup := faultinject.New("fault-mal")
	t.Cleanup(cleanup)
	fe.Set(faultinject.Malformed)
	ts := faultServer(t, WithRetryBackoff(time.Hour, time.Hour))

	code, plan, _, err := postPlan(ts, "fault-mal", 0)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 || plan.ServedBy != "gold" || !plan.Degraded {
		t.Fatalf("status=%d served_by=%q degraded=%v, want 200/gold/true", code, plan.ServedBy, plan.Degraded)
	}

	// The malformed artifact must not remain cached.
	var pols []struct {
		Engine string `json:"engine"`
	}
	if code := doJSON(t, "GET", ts.URL+"/api/policies", nil, &pols); code != 200 {
		t.Fatalf("policies status %d", code)
	}
	for _, p := range pols {
		if p.Engine == "fault-mal" {
			t.Fatal("malformed policy still cached")
		}
	}

	// Inside the backoff window the engine is not retrained.
	before := fe.Trainings()
	code, plan, _, err = postPlan(ts, "fault-mal", 0)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 || plan.ServedBy != "gold" || !plan.Degraded {
		t.Fatalf("backoff retry: status=%d served_by=%q degraded=%v", code, plan.ServedBy, plan.Degraded)
	}
	if plan.DegradedReason != "engine backing off after failure" {
		t.Fatalf("degraded_reason = %q", plan.DegradedReason)
	}
	if fe.Trainings() != before {
		t.Fatalf("engine retrained inside backoff window (%d -> %d)", before, fe.Trainings())
	}
	if m := metricsSnapshot(t, ts); m["panics"] < 1 || m["rejections"] < 1 {
		t.Fatalf("metrics = %v, want panics>=1 rejections>=1", m)
	}
}

// TestFailingTrainingIsNeverCached: scripted train errors must not
// cache a nil policy — each request retrains until the engine recovers,
// then the good policy is cached and served undegraded.
func TestFailingTrainingIsNeverCached(t *testing.T) {
	fe, cleanup := faultinject.New("fault-failn")
	t.Cleanup(cleanup)
	fe.FailTimes(2)
	ts := faultServer(t)

	for i := 0; i < 2; i++ {
		code, _, _, err := postPlan(ts, "fault-failn", 0)
		if err != nil {
			t.Fatal(err)
		}
		if code != 400 {
			t.Fatalf("scripted failure %d: status %d, want 400", i, code)
		}
	}
	code, plan, _, err := postPlan(ts, "fault-failn", 0)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 || plan.ServedBy != "fault-failn" || plan.Degraded {
		t.Fatalf("recovery: status=%d served_by=%q degraded=%v", code, plan.ServedBy, plan.Degraded)
	}
	if got := fe.Trainings(); got != 3 {
		t.Fatalf("trainings = %d, want 3 (errors never cached)", got)
	}
	// The recovered policy is cached: no further training.
	if code, _, _, _ := postPlan(ts, "fault-failn", 0); code != 200 {
		t.Fatal("cached policy stopped serving")
	}
	if got := fe.Trainings(); got != 3 {
		t.Fatalf("trainings after cache hit = %d, want 3", got)
	}
}

// TestAdmissionControlShedsLoad: with one training slot taken by a
// hanging run, a cold request for a different key is shed with 503 +
// Retry-After instead of queued; the held request completes once the
// hang releases.
func TestAdmissionControlShedsLoad(t *testing.T) {
	fe, cleanup := faultinject.New("fault-cap")
	t.Cleanup(cleanup)
	fe.Set(faultinject.Hang)
	ts := faultServer(t, WithMaxTraining(1))

	type result struct {
		code int
		plan degradedPlan
		err  error
	}
	done := make(chan result, 1)
	go func() {
		code, plan, _, err := postPlan(ts, "fault-cap", 1)
		done <- result{code, plan, err}
	}()
	<-fe.HangStarted()

	// The hanging run holds the only slot: a different cold key is shed.
	code, _, hdr, err := postPlan(ts, "fault-cap", 2)
	if err != nil {
		t.Fatal(err)
	}
	if code != 503 {
		t.Fatalf("over-capacity status %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	fe.Set(faultinject.OK)
	fe.Release()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.code != 200 || r.plan.ServedBy != "fault-cap" || r.plan.Degraded {
		t.Fatalf("held request: status=%d served_by=%q degraded=%v", r.code, r.plan.ServedBy, r.plan.Degraded)
	}
	if m := metricsSnapshot(t, ts); m["rejections"] < 1 {
		t.Fatalf("metrics = %v, want rejections>=1", m)
	}
}

// TestPartialSarsaServedDegraded: the checkpointing engine under a tiny
// budget serves its own partial policy (not the fallback), tagged
// degraded.
func TestPartialSarsaServedDegraded(t *testing.T) {
	const budget = 150 * time.Millisecond
	ts := faultServer(t, WithTrainBudget(budget))

	var out degradedPlan
	start := time.Now()
	code := doJSON(t, "POST", ts.URL+"/api/plan", map[string]interface{}{
		"instance": univ1,
		"engine":   "sarsa",
		"episodes": 50_000_000,
	}, &out)
	elapsed := time.Since(start)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.ServedBy != "sarsa" || !out.Degraded {
		t.Fatalf("served_by=%q degraded=%v, want sarsa/true", out.ServedBy, out.Degraded)
	}
	if !strings.Contains(out.DegradedReason, "partial") {
		t.Fatalf("degraded_reason = %q", out.DegradedReason)
	}
	if len(out.Steps) == 0 {
		t.Fatal("partial policy served an empty plan")
	}
	if elapsed > budget+time.Second {
		t.Fatalf("response took %s, want <= budget+1s", elapsed)
	}
	if m := metricsSnapshot(t, ts); m["partials"] < 1 {
		t.Fatalf("metrics = %v, want partials>=1", m)
	}
}

// TestHealthyPlanCarriesProvenance: the tags are not fault-only — a
// normal response names its engine and reports degraded=false, and the
// body still decodes as a bare Plan for old clients.
func TestHealthyPlanCarriesProvenance(t *testing.T) {
	ts := faultServer(t)
	code, plan, _, err := postPlan(ts, "gold", 0)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 || plan.ServedBy != "gold" || plan.Degraded || plan.DegradedReason != "" {
		t.Fatalf("status=%d served_by=%q degraded=%v reason=%q", code, plan.ServedBy, plan.Degraded, plan.DegradedReason)
	}
	if len(plan.Steps) == 0 {
		t.Fatal("empty plan")
	}
}

// TestGoldFaultHasNoFallback: when the fallback engine itself is the
// one requested and it faults, the ladder must not recurse — the fault
// maps to its status.
func TestGoldFaultHasNoFallback(t *testing.T) {
	fe, cleanup := faultinject.New("fault-solo")
	t.Cleanup(cleanup)
	fe.Set(faultinject.Panic)
	ts := faultServer(t, WithFallbackEngine("fault-solo"))

	code, _, _, err := postPlan(ts, "fault-solo", 0)
	if err != nil {
		t.Fatal(err)
	}
	if code != 500 {
		t.Fatalf("status %d, want 500 (no fallback rung for the fallback engine)", code)
	}
}
