// Batch planning: POST /api/plan/batch fans one (instance, engine,
// options) configuration across many start items. The policy is trained
// (or fetched) once through the store's singleflight; the fan-out then
// runs Recommend walks concurrently over the shared immutable policy
// and its cached environment, with the request goroutine as one of the
// workers, so a one-start batch runs entirely on it. Each item carries
// its own result, error and degradation tag, so one infeasible start
// never fails the batch.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"github.com/rlplanner/rlplanner"
)

// DefaultBatchWorkers bounds the concurrent recommendation walks of one
// batch request, the request goroutine's own included.
const DefaultBatchWorkers = 4

// MaxBatchItems caps one batch request; larger batches are rejected
// with 400 rather than silently truncated.
const MaxBatchItems = 1024

// batchRequest is a plan request fanned across many start items. The
// shared fields (instance, engine, options) resolve exactly like
// /api/plan; Starts lists the start item id per batch item ("" uses the
// trained default start).
type batchRequest struct {
	planRequest
	Starts []string `json:"starts"`
}

// batchItem is the outcome of one start: either a plan (possibly
// degraded through the fallback ladder) or an error with the HTTP
// status the same request would have gotten from /api/plan.
type batchItem struct {
	Start  string        `json:"start"`
	Plan   *planResponse `json:"plan,omitempty"`
	Error  string        `json:"error,omitempty"`
	Status int           `json:"status,omitempty"`
}

// batchResponse is the whole batch, index-aligned with the request's
// Starts.
type batchResponse struct {
	Instance string      `json:"instance"`
	Engine   string      `json:"engine"`
	Items    []batchItem `json:"items"`
	Errors   int         `json:"errors"`
}

func (s *Server) planBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Starts) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch request needs a non-empty \"starts\" list"))
		return
	}
	if len(req.Starts) > MaxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d items exceeds the %d-item limit", len(req.Starts), MaxBatchItems))
		return
	}
	inst, err := s.instance(req.Instance)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	engineName, err := req.engineName()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	key := req.policyKey(engineName)
	items := make([]batchItem, len(req.Starts))
	// Work-stealing fan-out: a shared cursor instead of pre-partitioned
	// ranges, so one slow item (a cold policy, a fallback train) does not
	// idle the other workers. The request goroutine is worker 0: a batch
	// of one start spawns nothing and hands nothing to another thread.
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(req.Starts) {
				return
			}
			items[i] = s.batchOne(r, inst, engineName, key, req.planRequest, req.Starts[i])
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < min(DefaultBatchWorkers, len(req.Starts)); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	resp := batchResponse{Instance: req.Instance, Engine: engineName, Items: items}
	for i := range items {
		if items[i].Error != "" {
			resp.Errors++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchOne runs one start through planOrFallback, the same ladder as
// /api/plan, under the batch's policy key. Unknown start items
// short-circuit to a per-item 400 before touching any policy.
func (s *Server) batchOne(r *http.Request, inst *rlplanner.Instance, engineName, key string, req planRequest, start string) batchItem {
	if start != "" && !inst.HasItem(start) {
		return batchItem{
			Start:  start,
			Error:  fmt.Sprintf("unknown item %q in instance %s", start, inst.Name()),
			Status: http.StatusBadRequest,
		}
	}
	resp, err := s.planOrFallback(r.Context(), inst, engineName, key, req, start)
	if err != nil {
		return batchItem{Start: start, Error: err.Error(), Status: planErrorStatus(err)}
	}
	return batchItem{Start: start, Plan: resp}
}
