// Per-user personalization over the policy store: copy-on-write Q
// overlays keyed by (user, policy) in a byte-bounded engine.Store, the
// serving half of the layered-reads architecture (DESIGN §13). The
// shared policy artifacts stay immutable — feedback writes land only in
// the caller's overlay, and a request without a user (or whose user has
// no overlay) serves the base policy bit-identically at the base cost.
package httpapi

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"github.com/rlplanner/rlplanner"
)

// DefaultOverlayBudgetBytes bounds the total estimated resident memory
// of all per-user overlays (64 MiB — roughly 10⁵ lightly-personalized
// users over an institution-scale catalog).
const DefaultOverlayBudgetBytes = 64 << 20

// overlayCostFloor is the least an overlay entry is charged against the
// budget: the charge of the smallest non-empty overlay, one 48 B cell
// plus its 160 B row. An overlay that has only seen neutral ratings
// holds no cells, yet its entry still occupies memory and must count.
const overlayCostFloor = 208

// overlayEntry is one user's overlay for one policy. Its mutex
// serializes that user's requests (overlays are single-writer); no
// store lock is ever held across a recommendation walk.
type overlayEntry struct {
	user string
	mu   sync.Mutex
	ov   *rlplanner.Overlay
	// bytes is ov's estimated size after its last feedback write: stored
	// under mu, read without it by the store's cost function.
	bytes atomic.Int64
}

// overlayCost charges an entry its overlay's bytes, at least
// overlayCostFloor.
func overlayCost(e *overlayEntry) int { return max(overlayCostFloor, int(e.bytes.Load())) }

// overlayKey scopes a user's personalization to one policy artifact:
// feedback against the sarsa policy must not leak into the qlearning
// one, and retrained policies (different options key) start clean.
func overlayKey(user, policyKey string) string { return user + "\x00" + policyKey }

// feedbackRequest applies one feedback signal from a user to a served
// plan. The policy fields mirror planRequest so the signal lands on
// exactly the artifact that served the plan; Items is the plan the user
// is rating. Exactly one of Useful or Rating must be set.
type feedbackRequest struct {
	planRequest
	Items []string `json:"items"`
	// Useful is binary useful/not-useful feedback.
	Useful *bool `json:"useful,omitempty"`
	// Rating is a categorical 1–5 rating (3 = neutral = no-op).
	Rating *float64 `json:"rating,omitempty"`
	// Rate overrides the nudge aggressiveness in (0, 1] (0 = default).
	Rate float64 `json:"rate,omitempty"`
}

// feedbackResponse reports what the signal did to the user's overlay.
type feedbackResponse struct {
	User string `json:"user"`
	// Applied is the number of plan transitions adjusted (0 for a
	// neutral signal).
	Applied int `json:"applied"`
	// OverlayCells / OverlayBytes describe the user's overlay after the
	// update; Evictions counts its row evictions so far.
	OverlayCells int    `json:"overlay_cells"`
	OverlayBytes int    `json:"overlay_bytes"`
	Evictions    uint64 `json:"overlay_evictions"`
}

// feedback is POST /api/feedback: fold a user's plan feedback into
// their copy-on-write overlay over the serving policy. The policy is
// resolved through the same cached/singleflight path as /api/plan, so
// feedback for a cold policy trains it once and feedback for a warm one
// touches no training machinery at all.
func (s *Server) feedback(w http.ResponseWriter, r *http.Request) {
	var req feedbackRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.User == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("feedback requires a user id"))
		return
	}
	if (req.Useful == nil) == (req.Rating == nil) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("set exactly one of useful or rating"))
		return
	}
	if len(req.Items) < 2 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("feedback needs a plan of at least 2 items"))
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
	pkey := req.policyKey(engineName)
	pol, err := s.policy(r.Context(), inst, engineName, pkey, req.planRequest)
	if err != nil {
		s.writePlanError(w, err)
		return
	}
	// A user's first feedback creates their overlay; concurrent first
	// signals share one creation through the store's singleflight.
	key := overlayKey(req.User, pkey)
	create := func() (*overlayEntry, error) {
		ov, err := pol.NewOverlay(s.overlayCells)
		if err != nil {
			return nil, err
		}
		return &overlayEntry{user: req.User, ov: ov}, nil
	}
	entry, _, err := s.overlays.GetOrTrain(r.Context(), key, create)
	if err == nil && !entry.ov.For(pol) {
		// The policy under this key was retrained since the overlay was
		// created; restart the user's personalization on the new artifact.
		s.overlays.CompareAndRemove(key, entry)
		entry, _, err = s.overlays.GetOrTrain(r.Context(), key, create)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	plan := &rlplanner.Plan{Steps: make([]rlplanner.PlanStep, 0, len(req.Items))}
	for _, id := range req.Items {
		plan.Steps = append(plan.Steps, rlplanner.PlanStep{ID: id})
	}
	entry.mu.Lock()
	var applied int
	if req.Useful != nil {
		applied, err = entry.ov.ObserveBinary(plan, *req.Useful, req.Rate)
	} else {
		applied, err = entry.ov.ObserveRating(plan, *req.Rating, req.Rate)
	}
	resp := feedbackResponse{
		User:         req.User,
		Applied:      applied,
		OverlayCells: entry.ov.Cells(),
		OverlayBytes: entry.ov.MemoryBytes(),
		Evictions:    entry.ov.Evictions(),
	}
	entry.bytes.Store(int64(resp.OverlayBytes))
	entry.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.feedbackSignals.Add(1)
	s.overlays.Recharge(key)
	writeJSON(w, http.StatusOK, resp)
}
