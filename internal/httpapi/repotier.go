// The durable policy tier behind the serving cache: WithPolicyDir roots
// an internal/repo repository under the policy store (memory cache →
// on-disk repo → train), so a restarted daemon warm-boots its policies
// from disk and N replicas sharing one directory train each key exactly
// once (the repository's cross-process claim protocol). This file is
// the serialization adapter between the two layers: store keys parse
// back into plan requests, artifacts stream through Policy.Save /
// LoadPolicyArtifact, and every repository fault degrades to the
// training path — never to a failed request.
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"strconv"
	"strings"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/repo"
)

// WithPolicyDir attaches a durable, crash-safe policy repository rooted
// at dir ("" disables the tier — the default). Opening runs the boot
// warm scan: every artifact is checksum-verified and corrupt or
// truncated entries are quarantined to *.bad. An unopenable repository
// is logged and skipped; the daemon serves memory-only rather than
// refusing to start.
func WithPolicyDir(dir string) Option {
	return func(s *Server) { s.policyDir = dir }
}

// openRepo roots the repository configured by WithPolicyDir and hooks
// it behind the policy store. Called once from New, after options.
func (s *Server) openRepo() {
	if s.policyDir == "" {
		return
	}
	r, err := repo.Open(s.policyDir, repo.Options{})
	if err != nil {
		log.Printf("httpapi: policy repository %s unavailable, serving memory-only: %v", s.policyDir, err)
		return
	}
	if st := r.Stats(); st.Quarantined > 0 {
		log.Printf("httpapi: policy repository %s: %d entries verified, %d quarantined to *.bad",
			s.policyDir, st.Entries, st.Quarantined)
	}
	s.repo = r
	s.tier = &policyTier{s: s, r: r}
	s.policies.AttachTier(s.tier)
}

// repoStats reports the repository counters, zero when no repository is
// attached, so /api/metrics keeps a stable shape either way.
func (s *Server) repoStats() repo.Stats {
	if s.repo == nil {
		return repo.Stats{}
	}
	return s.repo.Stats()
}

// policyTier adapts the byte-oriented repository to the policy store's
// Tier interface. Repository keys extend the store key with the
// instance's catalog fingerprint, so a renamed-but-identical catalog
// shares its artifact and a changed catalog can never collide with its
// predecessor's.
type policyTier struct {
	s *Server
	r *repo.Repo
}

// resolve parses a store key back into its plan request and resolves
// the instance; ok is false for keys the tier cannot address (unknown
// instance, unparseable key), which then behave as simple misses.
func (t *policyTier) resolve(key string) (planRequest, *rlplanner.Instance, string, bool) {
	req, ok := parsePolicyKey(key)
	if !ok {
		return req, nil, "", false
	}
	inst, err := t.s.instance(req.Instance)
	if err != nil {
		return req, nil, "", false
	}
	return req, inst, key + "|" + inst.Fingerprint(), true
}

func (t *policyTier) Get(key string) (*rlplanner.Policy, bool) {
	req, inst, rk, ok := t.resolve(key)
	if !ok {
		return nil, false
	}
	payload, ok := t.r.Get(rk)
	if !ok {
		return nil, false
	}
	pol, err := rlplanner.LoadPolicyArtifact(bytes.NewReader(payload), inst, t.s.trainOpts(req))
	if err != nil {
		// The bytes passed their checksum but do not restore (foreign
		// artifact, version from the future, fingerprint drift): count it,
		// name the file, quarantine it, retrain.
		t.s.loadFailures.Add(1)
		log.Printf("httpapi: policy repository: quarantining %s: %v", t.r.Path(rk), err)
		t.r.Quarantine(rk)
		return nil, false
	}
	return pol, true
}

func (t *policyTier) Put(key string, pol *rlplanner.Policy) {
	_, _, rk, ok := t.resolve(key)
	if !ok {
		return
	}
	var buf bytes.Buffer
	if err := pol.Save(&buf); err != nil {
		// Policies that cannot serialize (test engines) simply stay
		// memory-only.
		return
	}
	if err := t.r.Put(rk, buf.Bytes()); err != nil {
		log.Printf("httpapi: policy repository: write-through for %q failed: %v", key, err)
	}
}

func (t *policyTier) Quarantine(key string) {
	if _, _, rk, ok := t.resolve(key); ok {
		t.r.Quarantine(rk)
	}
}

func (t *policyTier) TryClaim(key string) (func(), bool, error) {
	_, _, rk, ok := t.resolve(key)
	if !ok {
		// Unaddressable keys cannot coordinate across processes; let the
		// caller train locally.
		return nil, false, fmt.Errorf("httpapi: unaddressable policy key %q", key)
	}
	return t.r.TryClaim(rk)
}

// parsePolicyKey is the inverse of planRequest.policyKey. The tail
// seven fields are engine, episodes, seed, start, min-sim, time and
// distance; everything before them (which may itself contain "|") is
// the instance name.
func parsePolicyKey(key string) (planRequest, bool) {
	var req planRequest
	f := strings.Split(key, "|")
	if len(f) < 8 {
		return req, false
	}
	n := len(f)
	req.Instance = strings.Join(f[:n-7], "|")
	req.Engine = f[n-7]
	var err error
	if req.Episodes, err = strconv.Atoi(f[n-6]); err != nil {
		return req, false
	}
	if req.Seed, err = strconv.ParseInt(f[n-5], 10, 64); err != nil {
		return req, false
	}
	req.Start = f[n-4]
	switch f[n-3] {
	case "true":
		req.MinSim = true
	case "false":
		req.MinSim = false
	default:
		return req, false
	}
	if req.Time, err = strconv.ParseFloat(f[n-2], 64); err != nil {
		return req, false
	}
	if req.Distance, err = strconv.ParseFloat(f[n-1], 64); err != nil {
		return req, false
	}
	return req, req.Instance != "" && req.Engine != ""
}

// Preload resolves every entry of a boot manifest — a JSON array of
// plan requests — through the full policy path: memory, then the
// repository, then training under the cross-process claim. A fleet
// pointed at one manifest and one -policy-dir therefore trains each
// listed key exactly once, wherever it boots first; every other replica
// warm-loads it. Entries fail independently; the first error is
// returned after the whole manifest has been attempted.
func (s *Server) Preload(ctx context.Context, manifest io.Reader) (loaded int, err error) {
	var reqs []planRequest
	if derr := json.NewDecoder(manifest).Decode(&reqs); derr != nil {
		return 0, fmt.Errorf("preload manifest: %w", derr)
	}
	for i, req := range reqs {
		inst, ierr := s.instance(req.Instance)
		if ierr != nil {
			err = errors.Join(err, fmt.Errorf("preload[%d]: %w", i, ierr))
			continue
		}
		engineName, eerr := req.engineName()
		if eerr != nil {
			err = errors.Join(err, fmt.Errorf("preload[%d]: %w", i, eerr))
			continue
		}
		if _, perr := s.policy(ctx, inst, engineName, req); perr != nil {
			err = errors.Join(err, fmt.Errorf("preload[%d] %s/%s: %w", i, req.Instance, engineName, perr))
			continue
		}
		loaded++
	}
	return loaded, err
}
