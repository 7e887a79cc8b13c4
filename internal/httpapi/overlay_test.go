package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// planBody is the request every overlay test serves against: small
// enough to train fast, deterministic via the seed.
func overlayPlanReq(user string) map[string]interface{} {
	req := map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT",
		"engine":   "sarsa",
		"episodes": 120,
		"seed":     4,
	}
	if user != "" {
		req["user"] = user
	}
	return req
}

type overlayPlanResp struct {
	Steps []struct {
		ID string `json:"id"`
	} `json:"steps"`
	ServedBy     string `json:"served_by"`
	Personalized bool   `json:"personalized"`
}

func (r overlayPlanResp) ids() string {
	var ids []string
	for _, s := range r.Steps {
		ids = append(ids, s.ID)
	}
	return strings.Join(ids, "|")
}

// TestFeedbackPersonalizesPlans is the end-to-end loop: serve a plan,
// dislike it repeatedly as one user, and observe that only that user's
// plans change while anonymous requests and other users keep the base.
func TestFeedbackPersonalizesPlans(t *testing.T) {
	ts := testServer(t)

	var base overlayPlanResp
	if code := doJSON(t, "POST", ts.URL+"/api/plan", overlayPlanReq(""), &base); code != 200 {
		t.Fatalf("base plan status %d", code)
	}
	if base.Personalized {
		t.Fatal("anonymous plan marked personalized")
	}
	// A user with no feedback history serves the base plan, unmarked.
	var fresh overlayPlanResp
	if code := doJSON(t, "POST", ts.URL+"/api/plan", overlayPlanReq("alice"), &fresh); code != 200 {
		t.Fatalf("fresh-user plan status %d", code)
	}
	if fresh.Personalized || fresh.ids() != base.ids() {
		t.Fatalf("feedback-free user diverged from base: %q vs %q", fresh.ids(), base.ids())
	}

	var items []string
	for _, s := range base.Steps {
		items = append(items, s.ID)
	}
	fb := overlayPlanReq("alice")
	fb["items"] = items
	fb["useful"] = false
	fb["rate"] = 1.0
	var fbResp feedbackResponse
	for i := 0; i < 25; i++ {
		if code := doJSON(t, "POST", ts.URL+"/api/feedback", fb, &fbResp); code != 200 {
			t.Fatalf("feedback %d status %d", i, code)
		}
		if fbResp.Applied == 0 {
			t.Fatalf("feedback %d applied no transitions", i)
		}
	}
	if fbResp.OverlayCells == 0 || fbResp.OverlayBytes <= 0 {
		t.Fatalf("overlay stats after feedback: %+v", fbResp)
	}

	var personal overlayPlanResp
	if code := doJSON(t, "POST", ts.URL+"/api/plan", overlayPlanReq("alice"), &personal); code != 200 {
		t.Fatalf("personalized plan status %d", code)
	}
	if !personal.Personalized {
		t.Fatal("plan for a user with feedback not marked personalized")
	}
	if personal.ids() == base.ids() {
		t.Fatal("strong negative feedback left the user's plan unchanged")
	}
	// The shared artifact is untouched: anonymous and other-user requests
	// still serve the original plan.
	var again overlayPlanResp
	doJSON(t, "POST", ts.URL+"/api/plan", overlayPlanReq(""), &again)
	if again.ids() != base.ids() || again.Personalized {
		t.Fatal("anonymous serving changed after another user's feedback")
	}
	var other overlayPlanResp
	doJSON(t, "POST", ts.URL+"/api/plan", overlayPlanReq("bob"), &other)
	if other.ids() != base.ids() || other.Personalized {
		t.Fatal("one user's feedback leaked into another user's plans")
	}

	// Metrics surface the personalization fleet.
	var m map[string]int64
	doJSON(t, "GET", ts.URL+"/api/metrics", nil, &m)
	if m["overlay_users"] != 1 || m["overlay_entries"] != 1 {
		t.Fatalf("overlay_users=%d overlay_entries=%d", m["overlay_users"], m["overlay_entries"])
	}
	if m["overlay_bytes"] <= 0 {
		t.Fatalf("overlay_bytes = %d", m["overlay_bytes"])
	}
	if m["feedback_signals"] != 25 {
		t.Fatalf("feedback_signals = %d", m["feedback_signals"])
	}
	if m["policy_cache_bytes"] <= 0 || m["env_cache_bytes"] <= 0 {
		t.Fatalf("resident-bytes metrics: policy=%d env=%d",
			m["policy_cache_bytes"], m["env_cache_bytes"])
	}
}

// TestFeedbackValidation covers the request-shape rejections.
func TestFeedbackValidation(t *testing.T) {
	ts := testServer(t)
	base := overlayPlanReq("")
	var plan overlayPlanResp
	doJSON(t, "POST", ts.URL+"/api/plan", base, &plan)
	var items []string
	for _, s := range plan.Steps {
		items = append(items, s.ID)
	}

	cases := []struct {
		name string
		mut  func(map[string]interface{})
	}{
		{"no user", func(r map[string]interface{}) { delete(r, "user") }},
		{"no signal", func(r map[string]interface{}) { delete(r, "useful") }},
		{"both signals", func(r map[string]interface{}) { r["rating"] = 5 }},
		{"short plan", func(r map[string]interface{}) { r["items"] = items[:1] }},
	}
	for _, tc := range cases {
		req := overlayPlanReq("alice")
		req["items"] = items
		req["useful"] = true
		tc.mut(req)
		var errResp map[string]string
		if code := doJSON(t, "POST", ts.URL+"/api/feedback", req, &errResp); code != 400 {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}

	// Feedback against a procedural engine has no values to personalize.
	req := overlayPlanReq("alice")
	req["engine"] = "gold"
	req["items"] = items
	req["useful"] = true
	var errResp map[string]string
	if code := doJSON(t, "POST", ts.URL+"/api/feedback", req, &errResp); code != 400 {
		t.Errorf("procedural-engine feedback: status %d, want 400", code)
	}
}

// TestOverlayStoreBudgetEvictsUsers: pushing many users through a tiny
// byte budget evicts the least recently active, and evicted users revert
// to base serving.
func TestOverlayStoreBudgetEvictsUsers(t *testing.T) {
	ts := httptest.NewServer(New(WithOverlayBudget(1), WithOverlayCells(64)).Handler())
	t.Cleanup(ts.Close)

	var base overlayPlanResp
	doJSON(t, "POST", ts.URL+"/api/plan", overlayPlanReq(""), &base)
	var items []string
	for _, s := range base.Steps {
		items = append(items, s.ID)
	}
	// Budget of 1 byte: every new user's first feedback evicts the
	// previous user.
	for i := 0; i < 5; i++ {
		fb := overlayPlanReq(fmt.Sprintf("u%d", i))
		fb["items"] = items
		fb["useful"] = false
		var fbResp feedbackResponse
		if code := doJSON(t, "POST", ts.URL+"/api/feedback", fb, &fbResp); code != 200 {
			t.Fatalf("feedback u%d status %d", i, code)
		}
	}
	var m map[string]int64
	doJSON(t, "GET", ts.URL+"/api/metrics", nil, &m)
	if m["overlay_users"] != 1 {
		t.Fatalf("overlay_users = %d after budget evictions, want 1", m["overlay_users"])
	}
	if m["overlay_evictions"] != 4 {
		t.Fatalf("overlay_evictions = %d, want 4", m["overlay_evictions"])
	}
	// An evicted user's plan request serves the base, unmarked.
	var evicted overlayPlanResp
	doJSON(t, "POST", ts.URL+"/api/plan", overlayPlanReq("u0"), &evicted)
	if evicted.Personalized || evicted.ids() != base.ids() {
		t.Fatal("evicted user still served a personalized plan")
	}
}

// TestOverlaySurvivesOnlyItsPolicy: a retrained policy under the same
// key invalidates the overlay instead of applying it to the wrong
// artifact.
func TestOverlayStaleAfterPolicyReplaced(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var base overlayPlanResp
	doJSON(t, "POST", ts.URL+"/api/plan", overlayPlanReq(""), &base)
	var items []string
	for _, s := range base.Steps {
		items = append(items, s.ID)
	}
	fb := overlayPlanReq("alice")
	fb["items"] = items
	fb["useful"] = false
	var fbResp feedbackResponse
	if code := doJSON(t, "POST", ts.URL+"/api/feedback", fb, &fbResp); code != 200 {
		t.Fatalf("feedback status %d", code)
	}

	// Evict and retrain the policy under the same key.
	req := planRequest{Instance: "Univ-1 M.S. DS-CT", Episodes: 120, Seed: 4}
	key := req.policyKey("sarsa")
	srv.policies.Remove(key)
	var replan overlayPlanResp
	if code := doJSON(t, "POST", ts.URL+"/api/plan", overlayPlanReq("alice"), &replan); code != 200 {
		t.Fatalf("replan status %d", code)
	}
	// The stale overlay must not serve; the retrained artifact serves its
	// base plan and the entry is gone.
	if replan.Personalized {
		t.Fatal("stale overlay applied to a retrained policy")
	}
	var m map[string]int64
	doJSON(t, "GET", ts.URL+"/api/metrics", nil, &m)
	if m["overlay_entries"] != 0 {
		t.Fatalf("stale overlay entry not dropped: overlay_entries = %d", m["overlay_entries"])
	}
	// Fresh feedback rebuilds personalization on the new artifact.
	if code := doJSON(t, "POST", ts.URL+"/api/feedback", fb, &fbResp); code != 200 {
		t.Fatalf("post-retrain feedback status %d", code)
	}
	var personal overlayPlanResp
	doJSON(t, "POST", ts.URL+"/api/plan", overlayPlanReq("alice"), &personal)
	if !personal.Personalized {
		t.Fatal("feedback after retrain did not re-personalize")
	}
}

// TestNeutralFeedbackCountsAgainstBudget: a neutral rating writes no
// overlay cell, yet its entry is charged the cost floor, so a 1-byte
// budget keeps one neutral user and evicts every other.
func TestNeutralFeedbackCountsAgainstBudget(t *testing.T) {
	h := New(WithOverlayBudget(1)).Handler()
	serve := func(path string, body interface{}) *httptest.ResponseRecorder {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(b)))
		return w
	}
	var base overlayPlanResp
	if w := serve("/api/plan", overlayPlanReq("")); w.Code != 200 {
		t.Fatalf("base plan status %d", w.Code)
	} else if err := json.Unmarshal(w.Body.Bytes(), &base); err != nil {
		t.Fatal(err)
	}
	var items []string
	for _, s := range base.Steps {
		items = append(items, s.ID)
	}
	const users = 500
	for i := 0; i < users; i++ {
		fb := overlayPlanReq(fmt.Sprintf("u%d", i))
		fb["items"] = items
		fb["rating"] = 3
		if w := serve("/api/feedback", fb); w.Code != 200 {
			t.Fatalf("feedback u%d status %d: %s", i, w.Code, w.Body.String())
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/api/metrics", nil))
	var m map[string]int64
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["overlay_entries"] > 1 || m["overlay_evictions"] != users-1 {
		t.Fatalf("overlay_entries = %d, overlay_evictions = %d; want at most 1 and %d",
			m["overlay_entries"], m["overlay_evictions"], users-1)
	}
}
