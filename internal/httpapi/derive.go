// Warm-start training for the serving path: cold requests for the TD
// engines seed from the nearest cached policy (auto-derive on catalog
// fingerprint near-miss), and POST /api/policies/{id}/derive exposes
// the derivation explicitly. See internal/transfer for the mapping and
// the distance-scaled episode budget (DESIGN §12).
package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/rlplanner/rlplanner"
)

// deriveMaxDistance bounds auto-derivation: a cached policy further
// than this from the requested catalog warm-starts so little of the Q
// table that a cold run is the safer default.
const deriveMaxDistance = 0.3

// trainOpts resolves a request's training options plus the server's
// training worker count, which is deployment configuration — not part
// of the policy cache key, since the parallel protocol is bit-identical
// for any worker count.
func (s *Server) trainOpts(req planRequest) rlplanner.Options {
	opts := req.options()
	opts.TrainWorkers = s.trainWorkers
	return opts
}

// trainOrDerive is the cold-start path behind the policy store's
// singleflight: when auto-derive is on and a cached TD policy for a
// near catalog exists, training warm-starts from it with a
// distance-scaled episode budget; otherwise (or if derivation fails) it
// cold-trains. Both paths honor the request options and the server's
// worker count.
func (s *Server) trainOrDerive(ctx context.Context, inst *rlplanner.Instance, engineName string, req planRequest) (*rlplanner.Policy, error) {
	if s.autoDerive && (engineName == "sarsa" || engineName == "qlearning") {
		if src := s.nearestSource(inst, engineName); src != nil {
			if pol, _, err := rlplanner.Derive(ctx, src, inst, s.trainOpts(req)); err == nil {
				return pol, nil
			}
			// A failed derivation falls back to the cold run: warm-starting
			// is an optimization, never a new failure mode.
		}
	}
	return rlplanner.Train(ctx, inst, engineName, s.trainOpts(req))
}

// nearestSource scans the cached policies for the closest same-engine
// policy trained on a *different* catalog (fingerprint near-miss) and
// returns it when within deriveMaxDistance. Same-fingerprint policies
// are skipped: a request for the same catalog under different options
// is a cold-key decision, not a catalog change.
func (s *Server) nearestSource(inst *rlplanner.Instance, engineName string) *rlplanner.Policy {
	targetFP := inst.Fingerprint()
	var best *rlplanner.Policy
	bestDist := deriveMaxDistance
	for _, key := range s.policies.Keys() {
		pol, ok := s.policies.Cached(key)
		if !ok || pol.Engine() != engineName || pol.Fingerprint() == targetFP {
			continue
		}
		d, err := pol.MatchDistance(inst)
		if err != nil || d > bestDist {
			continue
		}
		best, bestDist = pol, d
	}
	return best
}

// deriveInfo is the derive endpoint's response: the stored policy plus
// the warm-start accounting.
type deriveInfo struct {
	policyInfo
	Source       string  `json:"source"`
	Distance     float64 `json:"distance"`
	ColdEpisodes int     `json:"cold_episodes"`
	WarmEpisodes int     `json:"warm_episodes"`
}

// derivePolicy warm-starts a policy for the requested instance from the
// cached policy named by the path key (the key /api/policies lists).
// The body is a plan request selecting the target instance and options;
// the derived policy is stored under that request's key, so subsequent
// identical plan requests serve from it without training.
func (s *Server) derivePolicy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	src, ok := s.policies.Cached(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown policy %q", id))
		return
	}
	var req planRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	inst, err := s.instance(req.Instance)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}

	// Derivation is a training run: it respects the admission semaphore
	// and the training budget exactly like the cold-start path, under a
	// detached-but-bounded context.
	if !s.training.TryAcquire() {
		s.metrics.Rejections.Add(1)
		s.writePlanError(w, errOverCapacity)
		return
	}
	defer s.training.Release()
	ctx := context.WithoutCancel(r.Context())
	cancel := context.CancelFunc(func() {})
	if s.trainBudget > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.trainBudget)
	}
	defer cancel()

	pol, stats, err := rlplanner.Derive(ctx, src, inst, s.trainOpts(req))
	if err != nil {
		s.writePlanError(w, err)
		return
	}
	key := req.policyKey(pol.Engine())
	s.policies.Add(key, pol)
	writeJSON(w, http.StatusCreated, deriveInfo{
		policyInfo:   policyInfo{Key: key, Engine: pol.Engine(), Fingerprint: pol.Fingerprint()},
		Source:       stats.Source,
		Distance:     stats.Distance,
		ColdEpisodes: stats.ColdEpisodes,
		WarmEpisodes: stats.WarmEpisodes,
	})
}
