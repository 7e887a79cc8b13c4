package httpapi

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
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
