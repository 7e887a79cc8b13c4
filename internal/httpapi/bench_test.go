package httpapi

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"github.com/rlplanner/rlplanner"
)

// BenchmarkPlanBatch measures one-start /api/plan/batch requests served
// in-process over an uploaded 8192-item synthetic geo catalog with a
// 64-episode policy, walking from a fixed pool of 256 starts: the
// request shape of the catalog-8k serving workload. Run with -benchmem.
func BenchmarkPlanBatch(b *testing.B) {
	const items = 8192
	in, err := rlplanner.GenerateInstance(rlplanner.GenParams{Name: "catalog-8k", Items: items, Geo: true, Seed: items})
	if err != nil {
		b.Fatal(err)
	}
	var spec bytes.Buffer
	if err := in.WriteJSON(&spec); err != nil {
		b.Fatal(err)
	}
	h := New(WithAutoDerive(false)).Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	if rec := post("/api/instances", spec.Bytes()); rec.Code != http.StatusCreated {
		b.Fatalf("upload: status %d: %s", rec.Code, rec.Body)
	}
	ids := in.Items()
	bodies := make([][]byte, 256)
	for i, j := range rand.New(rand.NewSource(items)).Perm(len(ids))[:len(bodies)] {
		if bodies[i], err = json.Marshal(map[string]interface{}{
			"instance": "catalog-8k", "episodes": 64, "starts": []string{ids[j].ID},
		}); err != nil {
			b.Fatal(err)
		}
	}
	// The first request trains the policy; every timed one reads it.
	if rec := post("/api/plan/batch", bodies[0]); rec.Code != http.StatusOK {
		b.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post("/api/plan/batch", bodies[i%len(bodies)]); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkFeedback measures in-process POST /api/feedback requests
// from 512 users on Univ-1 DS-CT, each rating the default policy's plan
// useful or not: the feedback shape of the serving benchmark. Every
// user posts once before the timer starts, so a timed post updates an
// overlay that exists. As the serving benchmark's client does, it
// reuses one request and one response writer, so the figures are the
// server's own. Run with -benchmem.
func BenchmarkFeedback(b *testing.B) {
	const inst, users = "Univ-1 M.S. DS-CT", 512
	h := New(WithAutoDerive(false)).Handler()
	req := httptest.NewRequest(http.MethodPost, "/api/feedback", nil)
	var body benchBody
	req.Body = &body
	w := &benchWriter{h: make(http.Header)}
	post := func(path string, payload []byte) (int, []byte) {
		req.URL.Path = path
		body.Reset(payload)
		req.ContentLength = int64(len(payload))
		w.code = 0
		w.body.Reset()
		h.ServeHTTP(w, req)
		return w.code, w.body.Bytes()
	}
	code, out := post("/api/plan", []byte(`{"instance":"`+inst+`"}`))
	if code != http.StatusOK {
		b.Fatalf("plan: status %d: %s", code, out)
	}
	var plan rlplanner.Plan
	if err := json.Unmarshal(out, &plan); err != nil {
		b.Fatal(err)
	}
	type feedbackBody struct {
		Instance string   `json:"instance"`
		User     string   `json:"user"`
		Items    []string `json:"items"`
		Useful   *bool    `json:"useful"`
	}
	var bodies [users][2][]byte
	for n := range bodies {
		for i, useful := range []bool{false, true} {
			body, err := json.Marshal(feedbackBody{inst, "u" + strconv.Itoa(1_000_000+n), plan.IDs(), &useful})
			if err != nil {
				b.Fatal(err)
			}
			bodies[n][i] = body
		}
		if code, out := post("/api/feedback", bodies[n][1]); code != http.StatusOK {
			b.Fatalf("warm-up: status %d: %s", code, out)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, out := post("/api/feedback", bodies[i%users][i/users%2]); code != http.StatusOK {
			b.Fatalf("status %d: %s", code, out)
		}
	}
}

// benchBody is a request body a benchmark rewinds for every request.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// benchWriter is a reusable http.ResponseWriter.
type benchWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *benchWriter) Header() http.Header { return w.h }

func (w *benchWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *benchWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}
