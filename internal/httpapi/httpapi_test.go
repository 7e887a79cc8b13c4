package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/geo"
)

// testServer spins up the API once per test.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New().Handler())
	t.Cleanup(ts.Close)
	return ts
}

// doJSON posts a body and decodes the response into out.
func doJSON(t *testing.T, method, url string, body, out interface{}) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestListAndGetInstances(t *testing.T) {
	ts := testServer(t)
	var list []map[string]interface{}
	if code := doJSON(t, "GET", ts.URL+"/api/instances", nil, &list); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(list) != 6 {
		t.Fatalf("instances = %d", len(list))
	}

	var detail struct {
		Name  string           `json:"name"`
		Items []rlplanner.Item `json:"items"`
	}
	url := ts.URL + "/api/instances/Univ-1 M.S. DS-CT"
	if code := doJSON(t, "GET", url, nil, &detail); code != 200 {
		t.Fatalf("status %d", code)
	}
	if detail.Name != "Univ-1 M.S. DS-CT" || len(detail.Items) != 31 {
		t.Fatalf("detail = %s / %d items", detail.Name, len(detail.Items))
	}

	if code := doJSON(t, "GET", ts.URL+"/api/instances/Hogwarts", nil, &struct{}{}); code != 404 {
		t.Fatalf("unknown instance status %d", code)
	}
}

func TestPlanEndpoint(t *testing.T) {
	ts := testServer(t)
	var plan rlplanner.Plan
	code := doJSON(t, "POST", ts.URL+"/api/plan", map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT",
		"episodes": 150,
		"seed":     1,
	}, &plan)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(plan.Steps) != 10 {
		t.Fatalf("plan = %d steps", len(plan.Steps))
	}
	if plan.TotalCredits != 30 {
		t.Fatalf("credits = %v", plan.TotalCredits)
	}
}

// TestPlanServesRequestedDistance: a plan requested at d = 2 km is
// walked in the environment built for d = 2, whether the default
// (d = 5) request came first or second: its path is at most 2 km, or the
// plan reports the violation.
func TestPlanServesRequestedDistance(t *testing.T) {
	paris, err := rlplanner.InstanceByName("Paris")
	if err != nil {
		t.Fatal(err)
	}
	at := map[string]geo.Point{}
	for _, it := range paris.Spec().Items {
		at[it.ID] = geo.Point{Lat: it.Lat, Lon: it.Lon}
	}
	for _, order := range [][]float64{{0, 2}, {2, 0}} {
		ts := testServer(t)
		for _, d := range order {
			req := map[string]interface{}{"instance": "Paris", "seed": 1}
			if d != 0 {
				req["max_distance_km"] = d
			}
			var plan rlplanner.Plan
			if code := doJSON(t, "POST", ts.URL+"/api/plan", req, &plan); code != 200 {
				t.Fatalf("order %v, d = %g: status %d", order, d, code)
			}
			if d != 2 {
				continue
			}
			pts := make([]geo.Point, len(plan.Steps))
			for i, s := range plan.Steps {
				pts[i] = at[s.ID]
			}
			if km := geo.PathLength(pts); km > d && plan.SatisfiesConstraints {
				t.Errorf("order %v: d = %g plan %v walks %.2f km and reports no violation", order, d, plan.IDs(), km)
			}
		}
	}
}

func TestPlanBaselines(t *testing.T) {
	ts := testServer(t)
	for _, baseline := range []string{"gold", "eda", "omega"} {
		var plan rlplanner.Plan
		code := doJSON(t, "POST", ts.URL+"/api/plan", map[string]interface{}{
			"instance": "Univ-1 M.S. DS-CT",
			"baseline": baseline,
			"seed":     1,
		}, &plan)
		if code != 200 {
			t.Fatalf("%s: status %d", baseline, code)
		}
		if len(plan.Steps) == 0 {
			t.Fatalf("%s: empty plan", baseline)
		}
	}
	code := doJSON(t, "POST", ts.URL+"/api/plan", map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT",
		"baseline": "oracle",
	}, &struct{}{})
	if code != 400 {
		t.Fatalf("bad baseline status %d", code)
	}
}

func TestPlanBadRequests(t *testing.T) {
	ts := testServer(t)
	if code := doJSON(t, "POST", ts.URL+"/api/plan",
		map[string]interface{}{"instance": "Nowhere"}, &struct{}{}); code != 404 {
		t.Fatalf("unknown instance status %d", code)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/api/plan", bytes.NewBufferString("{"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("garbage body status %d", resp.StatusCode)
	}
}

func TestRateEndpoint(t *testing.T) {
	ts := testServer(t)
	var ratings rlplanner.Ratings
	code := doJSON(t, "POST", ts.URL+"/api/rate", map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT",
		"items":    []string{"CS 675", "CS 636", "MATH 661"},
		"raters":   25,
		"seed":     1,
	}, &ratings)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if ratings.Overall < 1 || ratings.Overall > 5 {
		t.Fatalf("overall = %v", ratings.Overall)
	}
	// Unknown item in the plan.
	code = doJSON(t, "POST", ts.URL+"/api/rate", map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT",
		"items":    []string{"GHOST 1"},
	}, &struct{}{})
	if code != 400 {
		t.Fatalf("unknown item status %d", code)
	}
}

func TestSessionLifecycle(t *testing.T) {
	ts := testServer(t)

	var view struct {
		ID          string                 `json:"id"`
		Plan        []string               `json:"plan"`
		Done        bool                   `json:"done"`
		Suggestions []rlplanner.Suggestion `json:"suggestions"`
	}
	code := doJSON(t, "POST", ts.URL+"/api/sessions", map[string]interface{}{
		"instance":    "Univ-1 M.S. DS-CT",
		"episodes":    150,
		"seed":        2,
		"suggestions": 4,
	}, &view)
	if code != 201 {
		t.Fatalf("create status %d", code)
	}
	if view.ID == "" || len(view.Plan) != 1 || view.Done {
		t.Fatalf("fresh session view = %+v", view)
	}
	if len(view.Suggestions) == 0 || len(view.Suggestions) > 4 {
		t.Fatalf("suggestions = %d", len(view.Suggestions))
	}

	base := ts.URL + "/api/sessions/" + view.ID

	// Reject the first suggestion; it must vanish.
	vetoed := view.Suggestions[0].ID
	code = doJSON(t, "POST", base+"/reject", map[string]string{"item": vetoed}, &view)
	if code != 200 {
		t.Fatalf("reject status %d", code)
	}
	for _, s := range view.Suggestions {
		if s.ID == vetoed {
			t.Fatalf("vetoed %q still suggested", vetoed)
		}
	}

	// Accept the new top suggestion.
	pick := view.Suggestions[0].ID
	code = doJSON(t, "POST", base+"/accept", map[string]string{"item": pick}, &view)
	if code != 200 {
		t.Fatalf("accept status %d", code)
	}
	if len(view.Plan) != 2 {
		t.Fatalf("plan after accept = %v", view.Plan)
	}

	// GET reflects the same state.
	var again struct {
		Plan []string `json:"plan"`
	}
	if code := doJSON(t, "GET", base, nil, &again); code != 200 {
		t.Fatalf("get status %d", code)
	}
	if len(again.Plan) != 2 {
		t.Fatalf("get plan = %v", again.Plan)
	}

	// Complete; the result plan honors the rejection.
	var completed struct {
		Done   bool            `json:"done"`
		Result *rlplanner.Plan `json:"result"`
	}
	if code := doJSON(t, "POST", base+"/complete", nil, &completed); code != 200 {
		t.Fatalf("complete status %d", code)
	}
	if !completed.Done || completed.Result == nil {
		t.Fatalf("completed = %+v", completed)
	}
	if len(completed.Result.Steps) != 10 {
		t.Fatalf("result steps = %d", len(completed.Result.Steps))
	}
	for _, s := range completed.Result.Steps {
		if s.ID == vetoed {
			t.Fatalf("vetoed %q in final plan", vetoed)
		}
	}
	if !completed.Result.SatisfiesConstraints {
		t.Fatalf("final plan violates constraints: %v", completed.Result.Violations)
	}
}

func TestSessionErrors(t *testing.T) {
	ts := testServer(t)
	if code := doJSON(t, "GET", ts.URL+"/api/sessions/s999", nil, &struct{}{}); code != 404 {
		t.Fatalf("unknown session status %d", code)
	}

	var view struct {
		ID string `json:"id"`
	}
	doJSON(t, "POST", ts.URL+"/api/sessions", map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT",
		"episodes": 100,
		"seed":     3,
	}, &view)
	base := ts.URL + "/api/sessions/" + view.ID

	// Accepting an unknown item conflicts.
	code := doJSON(t, "POST", base+"/accept", map[string]string{"item": "GHOST"}, &struct{}{})
	if code != 409 {
		t.Fatalf("bad accept status %d", code)
	}
}

// TestSessionConcurrentRequests interleaves reject, accept, GET and one
// complete on one session from several goroutines through the handler.
// The session's episode and rejection set have no lock of their own, so
// requests must serialize per session: unserialized, a reject's map
// write races the suggestion ranking's read (and two rejects are a
// concurrent map write, which stops the process).
func TestSessionConcurrentRequests(t *testing.T) {
	h := New().Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w
	}
	w := serve("POST", "/api/sessions",
		fmt.Sprintf(`{"instance":%q,"episodes":100,"seed":5,"suggestions":4}`, instName))
	if w.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", w.Code, w.Body.String())
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	inst, err := rlplanner.InstanceByName(instName)
	if err != nil {
		t.Fatal(err)
	}
	items := inst.Items()
	base := "/api/sessions/" + created.ID

	// Each goroutine rejects one of three items, so the guided walk can
	// always finish the plan; accepts cycle through the catalog.
	const goroutines, rounds = 4, 24
	var (
		wg       sync.WaitGroup
		complete []string // written by goroutine 0, read after wg.Wait
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var w *httptest.ResponseRecorder
				switch {
				case g == 0 && i == rounds/2:
					w = serve("POST", base+"/complete", "")
					var res struct {
						Done   bool            `json:"done"`
						Result *rlplanner.Plan `json:"result"`
					}
					if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil || !res.Done || res.Result == nil {
						t.Errorf("complete: %v: %s", err, w.Body.String())
						continue
					}
					for _, st := range res.Result.Steps {
						complete = append(complete, st.ID)
					}
				case (g+i)%3 == 0:
					w = serve("POST", base+"/reject",
						fmt.Sprintf(`{"item":%q}`, items[1+g%3].ID))
				case (g+i)%3 == 1:
					w = serve("POST", base+"/accept",
						fmt.Sprintf(`{"item":%q}`, items[(g*rounds+i)%len(items)].ID))
					if w.Code == http.StatusConflict {
						continue // already chosen, over budget or complete
					}
				default:
					w = serve("GET", base, "")
				}
				if w.Code != http.StatusOK {
					t.Errorf("goroutine %d round %d: status %d: %s", g, i, w.Code, w.Body.String())
				}
			}
		}(g)
	}
	wg.Wait()

	// Once complete ran, no accept could land: the session still shows
	// the completed plan.
	var final struct {
		Plan []string `json:"plan"`
		Done bool     `json:"done"`
	}
	if w := serve("GET", base, ""); w.Code != http.StatusOK {
		t.Fatalf("final GET: status %d", w.Code)
	} else if err := json.Unmarshal(w.Body.Bytes(), &final); err != nil {
		t.Fatal(err)
	}
	if !final.Done || !reflect.DeepEqual(final.Plan, complete) {
		t.Fatalf("final session plan %v (done %v), completed plan %v", final.Plan, final.Done, complete)
	}
}

func TestPlannerCacheReuse(t *testing.T) {
	// Two identical plan requests must reuse the learned policy and return
	// identical plans.
	ts := testServer(t)
	req := map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT",
		"episodes": 120,
		"seed":     4,
	}
	var a, b rlplanner.Plan
	doJSON(t, "POST", ts.URL+"/api/plan", req, &a)
	doJSON(t, "POST", ts.URL+"/api/plan", req, &b)
	if fmt.Sprint(a.IDs()) != fmt.Sprint(b.IDs()) {
		t.Fatalf("cached planner returned different plans:\n%v\n%v", a.IDs(), b.IDs())
	}
}

func TestCustomInstanceUpload(t *testing.T) {
	ts := testServer(t)
	spec := map[string]interface{}{
		"name":   "Workshop",
		"topics": []string{"go", "testing", "deploy"},
		"items": []map[string]interface{}{
			{"id": "intro", "type": "primary", "credits": 1, "topics": []string{"go"}},
			{"id": "tests", "credits": 1, "topics": []string{"testing"}},
			{"id": "ship", "type": "primary", "credits": 1, "prereq": "intro", "topics": []string{"deploy"}},
		},
		"credits": 3, "primary": 2, "secondary": 1, "gap": 1,
	}
	var created struct {
		Name     string `json:"name"`
		NumItems int    `json:"num_items"`
	}
	if code := doJSON(t, "POST", ts.URL+"/api/instances", spec, &created); code != 201 {
		t.Fatalf("create status %d", code)
	}
	if created.Name != "Workshop" || created.NumItems != 3 {
		t.Fatalf("created = %+v", created)
	}

	// Duplicate and built-in-shadowing uploads conflict.
	if code := doJSON(t, "POST", ts.URL+"/api/instances", spec, &struct{}{}); code != 409 {
		t.Fatalf("duplicate status %d", code)
	}
	shadow := map[string]interface{}{
		"name":   "Paris",
		"topics": []string{"x"},
		"items":  []map[string]interface{}{{"id": "a", "credits": 1, "topics": []string{"x"}}},
	}
	if code := doJSON(t, "POST", ts.URL+"/api/instances", shadow, &struct{}{}); code != 409 {
		t.Fatalf("shadow status %d", code)
	}

	// The custom instance is visible and plannable.
	var detail struct {
		NumItems int `json:"num_items"`
	}
	if code := doJSON(t, "GET", ts.URL+"/api/instances/Workshop", nil, &detail); code != 200 {
		t.Fatalf("get status %d", code)
	}
	var plan rlplanner.Plan
	code := doJSON(t, "POST", ts.URL+"/api/plan", map[string]interface{}{
		"instance": "Workshop",
		"episodes": 100,
		"seed":     1,
	}, &plan)
	if code != 200 {
		t.Fatalf("plan status %d", code)
	}
	if len(plan.Steps) != 3 {
		t.Fatalf("plan = %d steps", len(plan.Steps))
	}
	if !plan.SatisfiesConstraints {
		t.Fatalf("custom plan invalid: %v", plan.Violations)
	}
}

func TestCustomInstanceBadSpec(t *testing.T) {
	ts := testServer(t)
	if code := doJSON(t, "POST", ts.URL+"/api/instances",
		map[string]interface{}{"name": ""}, &struct{}{}); code != 400 {
		t.Fatalf("bad spec status %d", code)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := testServer(t)
	var out struct {
		Explanation []string `json:"explanation"`
	}
	code := doJSON(t, "POST", ts.URL+"/api/explain", map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT",
		"items":    []string{"CS 675", "CS 636", "CS 677"},
	}, &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Explanation) != 3 {
		t.Fatalf("lines = %d", len(out.Explanation))
	}
	// CS 677 two slots after CS 675 violates the gap; the explanation says so.
	found := false
	for _, l := range out.Explanation {
		if strings.Contains(l, "VIOLATED") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no violation surfaced:\n%v", out.Explanation)
	}
	if code := doJSON(t, "POST", ts.URL+"/api/explain", map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT",
		"items":    []string{"GHOST"},
	}, &struct{}{}); code != 400 {
		t.Fatalf("unknown item status %d", code)
	}
}

// TestSessionFlood: sessions are bounded. Creating sessionCapacity+64
// of them keeps at most sessionCapacity live; a session read between
// creations survives, and an early session nobody read is evicted and
// answers 404 like an unknown id.
func TestSessionFlood(t *testing.T) {
	s := New()
	h := s.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w
	}
	create := func() string {
		t.Helper()
		w := serve("POST", "/api/sessions", fmt.Sprintf(`{"instance":%q,"episodes":60,"seed":6}`, instName))
		if w.Code != http.StatusCreated {
			t.Fatalf("create: status %d: %s", w.Code, w.Body.String())
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		return v.ID
	}
	kept := create()
	var early []string
	for i := 0; i < sessionCapacity+64; i++ {
		id := create()
		if i < sessionCapacity {
			early = append(early, id)
		}
		if n := s.sessions.Len(); n > sessionCapacity {
			t.Fatalf("%d live sessions, capacity %d", n, sessionCapacity)
		}
		if w := serve("GET", "/api/sessions/"+kept, ""); w.Code != http.StatusOK {
			t.Fatalf("read session %s evicted after %d creations: status %d", kept, i+1, w.Code)
		}
	}
	for _, id := range early {
		if w := serve("GET", "/api/sessions/"+id, ""); w.Code == http.StatusNotFound {
			return
		}
	}
	t.Fatal("no early session was evicted")
}

// TestUploadRejectsUngriddableCoordinates uploads a 4200-item geo
// catalog, above the exact-distance limit so its legs come from the
// quantized neighbor store, whose items 100 and 101 sit at longitudes
// 1e308 and -1e308. The store's grid cannot divide by that span, so the
// upload must be refused with 400 and the item named, rather than
// accepted and then fail every plan.
func TestUploadRejectsUngriddableCoordinates(t *testing.T) {
	in, err := rlplanner.GenerateInstance(rlplanner.GenParams{Name: "far-flung", Items: 4200, Geo: true, Seed: 4200})
	if err != nil {
		t.Fatal(err)
	}
	spec := in.Spec()
	spec.Items[100].Lon, spec.Items[101].Lon = 1e308, -1e308
	ts := testServer(t)
	var body struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "POST", ts.URL+"/api/instances", spec, &body); code != http.StatusBadRequest {
		code = doJSON(t, "POST", ts.URL+"/api/plan", map[string]interface{}{"instance": "far-flung", "episodes": 4, "seed": 1}, &body)
		t.Fatalf("upload accepted; a plan on it then answers %d: %s", code, body.Error)
	}
	if id := spec.Items[100].ID; !strings.Contains(body.Error, strconv.Quote(id)) {
		t.Fatalf("error %q does not name item %q", body.Error, id)
	}
}

// TestPlansInvalidCounter shows plans_invalid_total counting a served
// plan that fails P_hard, from a start item with unmet antecedents
// (which no plan can satisfy), through /api/plan/batch, and not the
// valid plan /api/plan serves from the default start.
func TestPlansInvalidCounter(t *testing.T) {
	const name = "Univ-1 M.S. DS-CT"
	inst, err := rlplanner.InstanceByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var start string
	for _, it := range inst.Items() {
		if it.Prerequisite != "[]" {
			start = it.ID
			break
		}
	}
	h := New().Handler()
	invalid := func() float64 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/metrics", nil))
		var m map[string]float64
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		v, ok := m["plans_invalid_total"]
		if !ok {
			t.Fatal("/api/metrics has no plans_invalid_total")
		}
		return v
	}
	post := func(path string, body any, out any) {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s %s: status %d %s", path, b, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatal(err)
		}
	}

	var valid rlplanner.Plan
	post("/api/plan", map[string]any{"instance": name}, &valid)
	if !valid.SatisfiesConstraints {
		t.Fatalf("default-start plan violates P_hard: %v", valid.Violations)
	}
	if n := invalid(); n != 0 {
		t.Fatalf("after a valid plan: plans_invalid_total = %v, want 0", n)
	}

	var batch struct {
		Items []struct {
			Plan rlplanner.Plan `json:"plan"`
		} `json:"items"`
	}
	post("/api/plan/batch", map[string]any{"instance": name, "starts": []string{start}}, &batch)
	if len(batch.Items) != 1 || batch.Items[0].Plan.SatisfiesConstraints {
		t.Fatalf("plan from %q, whose antecedents are unmet: %+v, want one plan failing P_hard", start, batch.Items)
	}
	if n := invalid(); n != 1 {
		t.Fatalf("after a plan failing P_hard: plans_invalid_total = %v, want 1", n)
	}
}

// TestRateLongPlanAnswersPromptly: /api/rate takes as many items as fit
// in MaxBodyBytes and scores them with constraints.Check and the ordering
// measure, which look each item's antecedents up among the items before
// it. The plan repeats one item whose antecedent never appears, so a
// lookup that scanned the items before it would read the whole prefix at
// every position: about 6.7e9 comparisons for the 116 000 items here.
// The checkers index a plan that long, and the answer comes promptly.
func TestRateLongPlanAnswersPromptly(t *testing.T) {
	ts := testServer(t)
	const id = "CS 633" // requires CS 630
	items := make([]string, (MaxBodyBytes-100)/len(`"`+id+`",`))
	for i := range items {
		items[i] = id
	}
	start := time.Now()
	var ratings rlplanner.Ratings
	code := doJSON(t, "POST", ts.URL+"/api/rate", map[string]interface{}{
		"instance": "Univ-1 M.S. DS-CT",
		"items":    items,
	}, &ratings)
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("status %d for %d items", code, len(items))
	}
	if ratings.Ordering < 1 || ratings.Ordering > 1.5 {
		t.Errorf("ordering rating %v, want near 1: no position has its antecedent", ratings.Ordering)
	}
	if elapsed > 10*time.Second {
		t.Errorf("rating %d items took %v", len(items), elapsed)
	}
	t.Logf("%d items rated in %v", len(items), elapsed)
}
