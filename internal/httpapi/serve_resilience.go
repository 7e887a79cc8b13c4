// Serving-side resilience: the error taxonomy, the guarded recommend
// path and the status mapping that realize the degradation ladder
// (engine → bounded retry → fallback engine → load shedding) over the
// policy store. The training-side half of the ladder lives in
// Server.policy; see also internal/resilience.
package httpapi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/resilience"
)

// errOverCapacity reports that the training admission semaphore was
// full. It is shed as 503, never retried inline and never marks the
// retry breaker — capacity resolves itself when running trainings end.
var errOverCapacity = errors.New("training capacity exhausted; retry shortly")

// backoffError reports a policy key inside its retry-backoff window
// after a recent training fault.
type backoffError struct{ wait time.Duration }

func (e *backoffError) Error() string {
	return fmt.Sprintf("engine is backing off after a failure; retry in %s", e.wait.Round(time.Millisecond))
}

// serveError marks a trained policy that failed at Recommend time (a
// malformed artifact). It maps to 500 and is eligible for fallback; the
// policy itself has already been evicted so the next request retrains.
type serveError struct{ err error }

func (e *serveError) Error() string { return "serving policy: " + e.err.Error() }
func (e *serveError) Unwrap() error { return e.err }

// resilientFailure reports whether err sits on the fallback rung of the
// ladder: solver panics, blown training deadlines, backoff windows and
// serving-time policy failures. Config/validation errors are excluded
// (they are deterministic 4xx material the fallback would only mask),
// as is over-capacity (serving a fallback still costs a training run,
// which is exactly what admission control just refused).
func resilientFailure(err error) bool {
	var pe *resilience.PanicError
	var be *backoffError
	var se *serveError
	return errors.As(err, &pe) || errors.As(err, &be) || errors.As(err, &se) ||
		errors.Is(err, context.DeadlineExceeded)
}

// degradedReason renders the fault that triggered a fallback in one
// operator-readable phrase (panic values and stacks stay in the logs).
func degradedReason(err error) string {
	var pe *resilience.PanicError
	var be *backoffError
	switch {
	case errors.As(err, &pe):
		return "engine panicked"
	case errors.As(err, &be):
		return "engine backing off after failure"
	case errors.Is(err, context.DeadlineExceeded):
		return "training deadline exceeded"
	default:
		return err.Error()
	}
}

// noteOutcome records a leader-run training result in the breaker and
// the fault counters. Only resilience-class faults open the backoff
// window: deterministic config errors stay immediately retryable (the
// client will fix the request, not the clock), and capacity rejections
// are the semaphore's business.
func (s *Server) noteOutcome(key string, pol *rlplanner.Policy, err error) {
	var pe *resilience.PanicError
	switch {
	case err == nil:
		s.breaker.Success(key)
		if pol != nil && pol.Degraded() == engine.DegradedPartial {
			s.metrics.Partials.Add(1)
		}
	case errors.As(err, &pe):
		s.metrics.Panics.Add(1)
		s.breaker.Failure(key)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.metrics.Timeouts.Add(1)
		s.breaker.Failure(key)
	case errors.Is(err, errOverCapacity):
		s.metrics.Rejections.Add(1)
	}
}

// planResponse is a plan plus its provenance: which engine actually
// served it and whether the ladder degraded the answer. The plan is
// embedded, so clients that decode the response as a bare Plan keep
// working unchanged.
type planResponse struct {
	*rlplanner.Plan
	ServedBy       string `json:"served_by"`
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Personalized reports that the plan was read through the requesting
	// user's feedback overlay rather than the bare base policy.
	Personalized bool `json:"personalized,omitempty"`
}

// planOrFallback is the degradation ladder of /api/plan and of each
// /api/plan/batch item: a resilience-class fault of the requested
// engine (panic, blown deadline, backoff window, serving failure) is
// answered by the fallback engine's feasible plan, tagged degraded.
// Config errors and capacity rejections skip the ladder — the former
// are the client's to fix, the latter must shed load, not add more.
// When the fallback fails too, the requested engine's error is
// returned. key is req.policyKey(engineName). Every plan it returns,
// fallback plans included, counts in plans_invalid_total when it fails
// P_hard (Theorem 1).
func (s *Server) planOrFallback(ctx context.Context, inst *rlplanner.Instance, engineName, key string, req planRequest, startID string) (*planResponse, error) {
	resp, err := s.planFrom(ctx, inst, engineName, key, req, startID)
	if err == nil || s.fallback == "" || engineName == s.fallback || !resilientFailure(err) {
		if err == nil {
			s.notePlan(resp)
		}
		return resp, err
	}
	fb, fbErr := s.planFrom(ctx, inst, s.fallback, req.policyKey(s.fallback), req, startID)
	if fbErr != nil {
		return nil, err
	}
	s.metrics.Fallbacks.Add(1)
	fb.Degraded = true
	fb.DegradedReason = degradedReason(err)
	s.notePlan(fb)
	return fb, nil
}

// notePlan counts a plan about to be served that fails P_hard: the
// server scores every plan it serves, so Theorem 1 is checked at run
// time, not only in tests.
func (s *Server) notePlan(resp *planResponse) {
	if !resp.SatisfiesConstraints {
		s.plansInvalid.Add(1)
	}
}

// planFrom trains (or fetches) the engine's policy and produces a plan
// from startID ("" walks from the policy's trained start) under a panic
// guard. A policy that fails or panics at Recommend time is evicted
// from the store and marked failed in the breaker — a malformed
// artifact must never be re-served — and the error reports as
// resilience-class so planOrFallback can degrade to the fallback.
func (s *Server) planFrom(ctx context.Context, inst *rlplanner.Instance, engineName, key string, req planRequest, startID string) (*planResponse, error) {
	pol, err := s.policy(ctx, inst, engineName, key, req)
	if err != nil {
		return nil, err
	}
	// Personalization is lookup-only on the plan path: a user with no
	// recorded feedback (or no user at all) takes the base branch, which
	// is byte-for-byte the pre-overlay serving path.
	var entry *overlayEntry
	if req.User != "" {
		okey := overlayKey(req.User, key)
		if e, ok := s.overlays.Cached(okey); ok {
			if e.ov.For(pol) {
				entry = e
			} else {
				// The policy under this key was evicted and retrained since
				// the overlay was created; stale personalization is dropped
				// rather than applied to the wrong artifact.
				s.overlays.CompareAndRemove(okey, e)
			}
		}
	}
	plan, err := resilience.Guard("recommend "+engineName, func() (*rlplanner.Plan, error) {
		if entry == nil {
			return pol.Recommend(startID)
		}
		entry.mu.Lock()
		defer entry.mu.Unlock()
		return pol.RecommendWithOverlay(startID, entry.ov)
	})
	if err != nil {
		var pe *resilience.PanicError
		if errors.As(err, &pe) {
			s.metrics.Panics.Add(1)
		} else {
			err = &serveError{err: err}
		}
		s.policies.Remove(key)
		s.breaker.Failure(key)
		return nil, err
	}
	resp := &planResponse{Plan: plan, ServedBy: pol.Engine(), Personalized: entry != nil}
	if pol.Degraded() == engine.DegradedPartial {
		resp.Degraded = true
		resp.DegradedReason = fmt.Sprintf(
			"partial policy: training checkpointed at its deadline after %d episodes",
			pol.EpisodesTrained())
	}
	return resp, nil
}

// planErrorStatus maps a policy-path failure to its HTTP status:
// load-shedding (capacity, backoff) → 503, blown deadline → 504, panic
// or serving failure → 500, anything else → 400 (config/validation).
func planErrorStatus(err error) int {
	var pe *resilience.PanicError
	var be *backoffError
	var se *serveError
	switch {
	case errors.Is(err, errOverCapacity), errors.As(err, &be):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.As(err, &pe), errors.As(err, &se):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// writePlanError reports a policy-path failure with planErrorStatus's
// mapping, attaching Retry-After to the load-shedding statuses.
func (s *Server) writePlanError(w http.ResponseWriter, err error) {
	var be *backoffError
	switch {
	case errors.Is(err, errOverCapacity):
		w.Header().Set("Retry-After", "1")
	case errors.As(err, &be):
		w.Header().Set("Retry-After", retryAfterSeconds(be.wait))
	}
	writeError(w, planErrorStatus(err), err)
}

// retryAfterSeconds renders a backoff window as a Retry-After value:
// whole seconds, rounded up, at least 1.
func retryAfterSeconds(wait time.Duration) string {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// getMetrics reports the resilience fault counters plus the policy- and
// environment-cache lookup counters, in one flat map so existing
// dashboards keep decoding it.
func (s *Server) getMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.metrics.Snapshot()
	pc := s.policies.Stats()
	m["policy_cache_hits"] = int64(pc.Hits)
	m["policy_cache_misses"] = int64(pc.Misses)
	m["policy_cache_size"] = int64(pc.Size)
	ec := engine.EnvCacheStats()
	m["env_cache_hits"] = int64(ec.Hits)
	m["env_cache_misses"] = int64(ec.Misses)
	m["env_cache_size"] = int64(ec.Size)
	ts := engine.TrainStats()
	m["train_runs"] = ts.Runs
	m["train_warm_starts"] = ts.WarmStarts
	m["train_merge_batches"] = ts.MergeBatches
	m["train_episodes"] = ts.Episodes
	m["train_episodes_per_sec"] = int64(ts.EpisodesPerSecond())
	// Resident-memory estimates: what the caches and the personalization
	// fleet actually hold, the capacity-planning counterpart of the
	// hit/miss counters.
	policyBytes := 0
	s.policies.Range(func(_ string, pol *rlplanner.Policy) { policyBytes += pol.MemoryBytes() })
	m["policy_cache_bytes"] = int64(policyBytes)
	m["env_cache_bytes"] = int64(engine.EnvCacheBytes())
	users := make(map[string]struct{})
	s.overlays.Range(func(_ string, e *overlayEntry) { users[e.user] = struct{}{} })
	oc := s.overlays.Stats()
	m["overlay_users"] = int64(len(users))
	m["overlay_entries"] = int64(oc.Size)
	m["overlay_bytes"] = int64(oc.Cost)
	m["overlay_evictions"] = int64(oc.Evictions)
	m["feedback_signals"] = int64(s.feedbackSignals.Load())
	// Distance-accuracy observability: how many leg lookups missed the
	// compressed neighbor band and recomputed an exact Haversine. A
	// rapidly growing figure means the band (geo.DefaultNeighborK) is too
	// narrow for this catalog's plan geometry.
	m["dist_fallback_total"] = int64(geo.FallbackTotal())
	// Durable-tier observability: repository lookups/write-throughs, the
	// entries quarantined as corrupt (boot scan or read path), and how
	// often this replica waited on another process's training claim. All
	// zero when no -policy-dir is configured.
	rs := s.repoStats()
	m["repo_hits"] = int64(rs.Hits)
	m["repo_misses"] = int64(rs.Misses)
	m["repo_writes"] = int64(rs.Writes)
	m["repo_quarantined_total"] = int64(rs.Quarantined)
	m["repo_claim_waits"] = int64(rs.ClaimWaits)
	// Failed artifact restores (truncated/corrupt gob, fingerprint
	// mismatch), wherever the artifact came from — repository, import
	// endpoint or preload.
	m["artifact_load_failures_total"] = int64(s.loadFailures.Load())
	// Hot-endpoint request bodies the canonical-form decoder handed to
	// json.Decoder.
	m["wire_decode_fallbacks_total"] = int64(s.wireFallbacks.Load())
	// Served plans, from /api/plan, batch items and the fallback engine,
	// whose SatisfiesConstraints was false. A plan from a start item
	// with unmet antecedents counts here, since no plan from it can
	// satisfy P_hard.
	m["plans_invalid_total"] = int64(s.plansInvalid.Load())
	writeJSON(w, http.StatusOK, m)
}
