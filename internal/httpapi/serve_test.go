package httpapi

// Tests for the train/serve split of the serving path: per-key
// singleflight training, the bounded policy store, artifact
// export/import, and the discovery endpoints. Run with -race.

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/engine"
)

const instName = "Univ-1 M.S. DS-CT"

// TestConcurrentColdPlanTrainsOnce is the acceptance test of the
// concurrency model: N goroutines hammer /api/plan for one cold key.
// Exactly one training run may happen, every response must carry the
// identical plan, and the read endpoints must answer while the training
// run is still in flight.
func TestConcurrentColdPlanTrainsOnce(t *testing.T) {
	s := New()
	var trains int32
	trainStarted := make(chan struct{})
	release := make(chan struct{})
	s.onTrain = func(string) {
		if atomic.AddInt32(&trains, 1) == 1 {
			close(trainStarted)
		}
		<-release
	}
	h := s.Handler()

	const n = 24
	body := fmt.Sprintf(`{"instance":%q,"episodes":120,"seed":1}`, instName)
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = httptest.NewRecorder()
			h.ServeHTTP(recs[i], httptest.NewRequest("POST", "/api/plan", strings.NewReader(body)))
		}(i)
	}

	// The leader is now blocked inside training. Every read path must
	// still answer — nothing may hold a lock across Learn.
	<-trainStarted
	for _, path := range []string{"/api/instances", "/api/engines", "/api/policies",
		"/api/instances/" + url.PathEscape(instName)} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s during training: status %d", path, w.Code)
		}
	}
	close(release)
	wg.Wait()

	if got := atomic.LoadInt32(&trains); got != 1 {
		t.Fatalf("training ran %d times for one cold key, want exactly 1", got)
	}
	first := recs[0].Body.String()
	for i, w := range recs {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body.String())
		}
		if w.Body.String() != first {
			t.Fatalf("request %d served a different plan", i)
		}
	}

	// A warm request afterwards is a pure cache hit: no new training.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/api/plan", strings.NewReader(body)))
	if w.Code != http.StatusOK || w.Body.String() != first {
		t.Fatalf("warm request: status %d", w.Code)
	}
	if got := atomic.LoadInt32(&trains); got != 1 {
		t.Fatalf("warm request retrained (%d runs)", got)
	}
}

// TestDistinctKeysTrainIndependently: different engines for the same
// instance are different keys and train their own policies.
func TestDistinctKeysTrainIndependently(t *testing.T) {
	s := New()
	var trains int32
	s.onTrain = func(string) { atomic.AddInt32(&trains, 1) }
	h := s.Handler()
	for _, engine := range []string{"eda", "omega", "gold"} {
		body := fmt.Sprintf(`{"instance":%q,"engine":%q}`, instName, engine)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/api/plan", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", engine, w.Code, w.Body.String())
		}
	}
	if got := atomic.LoadInt32(&trains); got != 3 {
		t.Fatalf("3 engines trained %d policies", got)
	}
	// Aliases collapse onto the canonical key: "vi" and "valueiter" share.
	for _, engine := range []string{"vi", "valueiter", "value-iteration"} {
		body := fmt.Sprintf(`{"instance":%q,"engine":%q}`, instName, engine)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/api/plan", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", engine, w.Code)
		}
	}
	if got := atomic.LoadInt32(&trains); got != 4 {
		t.Fatalf("aliases did not share a cache entry (%d trainings)", got)
	}
}

func TestEnginesEndpoint(t *testing.T) {
	h := New().Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/api/engines", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var out struct {
		Engines []string `json:"engines"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Engines) != 6 {
		t.Fatalf("engines = %v", out.Engines)
	}
}

func TestPoliciesListing(t *testing.T) {
	s := New()
	h := s.Handler()
	body := fmt.Sprintf(`{"instance":%q,"engine":"gold"}`, instName)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/api/plan", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("plan status %d", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/api/policies", nil))
	var pols []struct {
		Key, Engine, Fingerprint string
	}
	if err := json.Unmarshal(w.Body.Bytes(), &pols); err != nil {
		t.Fatal(err)
	}
	if len(pols) != 1 || pols[0].Engine != "gold" || pols[0].Fingerprint == "" {
		t.Fatalf("policies = %+v", pols)
	}
}

// TestPolicyExportImport round-trips an artifact over HTTP: export from
// one server, import into a fresh one, and serve a plan from it without
// any training on the second server.
func TestPolicyExportImport(t *testing.T) {
	src := New()
	h := src.Handler()
	reqBody := fmt.Sprintf(`{"instance":%q,"episodes":120,"seed":1}`, instName)

	var plan rlplanner.Plan
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/api/plan", strings.NewReader(reqBody)))
	if err := json.Unmarshal(w.Body.Bytes(), &plan); err != nil {
		t.Fatal(err)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/api/policies/export", strings.NewReader(reqBody)))
	if w.Code != http.StatusOK {
		t.Fatalf("export status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("export content type %q", ct)
	}
	artifact := w.Body.Bytes()
	if len(artifact) == 0 {
		t.Fatal("empty artifact")
	}

	dst := New()
	var dstTrains int32
	dst.onTrain = func(string) { atomic.AddInt32(&dstTrains, 1) }
	dh := dst.Handler()

	w = httptest.NewRecorder()
	dh.ServeHTTP(w, httptest.NewRequest("POST",
		"/api/policies/import?instance="+url.QueryEscape(instName), bytes.NewReader(artifact)))
	if w.Code != http.StatusCreated {
		t.Fatalf("import status %d: %s", w.Code, w.Body.String())
	}

	// The imported policy serves the instance's default plan request.
	var served rlplanner.Plan
	w = httptest.NewRecorder()
	dh.ServeHTTP(w, httptest.NewRequest("POST", "/api/plan",
		strings.NewReader(fmt.Sprintf(`{"instance":%q}`, instName))))
	if w.Code != http.StatusOK {
		t.Fatalf("plan-from-import status %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &served); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&dstTrains); got != 0 {
		t.Fatalf("serving an imported policy trained %d times, want 0", got)
	}
	if fmt.Sprint(served.IDs()) != fmt.Sprint(plan.IDs()) {
		t.Fatalf("imported policy served %v, source trained %v", served.IDs(), plan.IDs())
	}
}

func TestPolicyImportErrors(t *testing.T) {
	h := New().Handler()

	// Missing instance parameter.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/api/policies/import", strings.NewReader("x")))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("missing instance: status %d", w.Code)
	}

	// Garbage artifact.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST",
		"/api/policies/import?instance="+url.QueryEscape(instName), strings.NewReader("garbage")))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("garbage artifact: status %d", w.Code)
	}

	// Fingerprint mismatch: export for one instance, import for another.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/api/policies/export",
		strings.NewReader(fmt.Sprintf(`{"instance":%q,"engine":"gold"}`, instName))))
	if w.Code != http.StatusOK {
		t.Fatalf("export status %d", w.Code)
	}
	artifact := w.Body.Bytes()
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST",
		"/api/policies/import?instance=NYC", bytes.NewReader(artifact)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("cross-catalog import: status %d", w.Code)
	}
	var resp struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "different catalog") {
		t.Fatalf("mismatch error = %q", resp.Error)
	}

	// Non-finite Q values: a well-formed artifact for the right catalog
	// whose every Q cell is NaN is refused, not served. No trainer writes
	// such a table, so the test forges the artifact: gob matches fields
	// by name, and these are the artifact's.
	dsct := univ.Univ1DSCT()
	n := dsct.Catalog.Len()
	forgedArtifact := struct {
		Magic, Engine, Instance, Fingerprint string
		Version, Items                       int
		Q                                    []float64
		IDs                                  []string
	}{
		Magic: "rlplanner-policy", Engine: "sarsa", Instance: dsct.Name,
		Fingerprint: engine.Fingerprint(dsct), Version: engine.ArtifactVersion,
		Items: n, Q: make([]float64, n*n), IDs: dsct.Catalog.IDs(),
	}
	for i := range forgedArtifact.Q {
		forgedArtifact.Q[i] = math.NaN()
	}
	var forged bytes.Buffer
	if err := gob.NewEncoder(&forged).Encode(forgedArtifact); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST",
		"/api/policies/import?instance="+url.QueryEscape(dsct.Name), &forged))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "not finite") {
		t.Fatalf("non-finite artifact: status %d: %s", w.Code, w.Body.String())
	}
}

// TestArtifactLoadFailuresPerServer: artifact_load_failures_total counts
// the restores one server failed, at both of its load sites — the import
// endpoint and the repository tier — and no other server's.
func TestArtifactLoadFailuresPerServer(t *testing.T) {
	failures := func(s *Server) int64 {
		t.Helper()
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/api/metrics", nil))
		var m map[string]int64
		if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		return m["artifact_load_failures_total"]
	}
	a, b := New(), New()
	w := httptest.NewRecorder()
	a.Handler().ServeHTTP(w, httptest.NewRequest("POST",
		"/api/policies/import?instance="+url.QueryEscape(instName), strings.NewReader("junk")))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("corrupt import: status %d", w.Code)
	}
	if got := failures(a); got != 1 {
		t.Fatalf("server A counts %d load failures, want 1", got)
	}
	if got := failures(b); got != 0 {
		t.Fatalf("server B counts %d load failures, want 0: A's import is not B's", got)
	}

	// A repository entry whose bytes pass the checksum but do not restore.
	c := New(WithPolicyDir(t.TempDir()))
	_, _, rk, ok := c.tier.resolve(planRequest{Instance: instName, Engine: "gold"}.policyKey("gold"))
	if !ok {
		t.Fatal("tier could not resolve the test key")
	}
	if err := c.repo.Put(rk, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	c.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/api/plan",
		strings.NewReader(fmt.Sprintf(`{"instance":%q,"engine":"gold"}`, instName))))
	if w.Code != http.StatusOK {
		t.Fatalf("plan over a corrupt repository entry: status %d", w.Code)
	}
	if got := failures(c); got != 1 {
		t.Fatalf("server C counts %d load failures, want 1", got)
	}
	if got := failures(a); got != 1 {
		t.Fatalf("server A counts %d load failures after C's, want 1", got)
	}
}

// TestPolicyCacheBound proves the -policy-cache knob: with a 1-entry
// store, a second engine evicts the first and forces a retrain.
func TestPolicyCacheBound(t *testing.T) {
	s := New(WithPolicyCacheSize(1))
	var trains int32
	s.onTrain = func(string) { atomic.AddInt32(&trains, 1) }
	h := s.Handler()
	plan := func(engine string) {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/api/plan",
			strings.NewReader(fmt.Sprintf(`{"instance":%q,"engine":%q}`, instName, engine))))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", engine, w.Code)
		}
	}
	plan("gold")
	plan("eda")  // evicts gold
	plan("gold") // retrains
	if got := atomic.LoadInt32(&trains); got != 3 {
		t.Fatalf("1-entry cache trained %d times, want 3", got)
	}
}

// TestSessionFromProceduralEngineRejected: sessions need action values.
func TestSessionFromProceduralEngineRejected(t *testing.T) {
	h := New().Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/api/sessions",
		strings.NewReader(fmt.Sprintf(`{"instance":%q,"engine":"gold"}`, instName))))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("session on gold: status %d: %s", w.Code, w.Body.String())
	}
}

// TestWriteJSONEncodeFailure: an unencodable value produces a clean 500
// instead of a torn 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, map[string]interface{}{"bad": func() {}})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if body, _ := io.ReadAll(w.Body); !bytes.Contains(body, []byte("encoding failed")) {
		t.Fatalf("body = %s", body)
	}
}
