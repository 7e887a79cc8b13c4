package rlplanner

import (
	"context"
	"fmt"
	"io"

	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/session"
	"github.com/rlplanner/rlplanner/internal/transfer"
)

// Engines lists the registered planning engines: the SARSA core
// ("sarsa", the default), its Q-learning variant ("qlearning"), value
// iteration ("valueiter") and the §IV-A2 baselines ("eda", "omega",
// "gold"). Any of these names — or their aliases, e.g. "vi" — can be
// passed to Train and to the HTTP API's "engine" field.
func Engines() []string { return engine.Names() }

// EngineName resolves an engine name or alias ("" selects the default
// SARSA engine) to its canonical registry name.
func EngineName(name string) (string, error) { return engine.Canonical(name) }

// Policy is an immutable, trained planning artifact: the output of an
// engine's learning (train) phase, decoupled from serving. A Policy
// never mutates, so one policy safely serves many concurrent Recommend
// calls — the train-once / serve-many shape of the §IV-F deployments.
type Policy struct {
	inst *Instance
	p    engine.Policy
}

// Train runs the named engine's training phase on the instance and
// returns the policy artifact. An empty engine name selects the default
// SARSA engine; see Engines for the registry.
func Train(ctx context.Context, inst *Instance, engineName string, opts Options) (*Policy, error) {
	if inst == nil {
		return nil, fmt.Errorf("rlplanner: nil instance")
	}
	pol, err := engine.Train(ctx, engineName, inst.inner, opts.toCore())
	if err != nil {
		return nil, err
	}
	return &Policy{inst: inst, p: pol}, nil
}

// DeriveStats reports what a warm-start derivation did: how far the
// target catalog is from the source policy's (the fraction of items
// without an exact-id match) and how the episode budget shrank.
type DeriveStats struct {
	// Source names the instance the source policy was trained on.
	Source string
	// Distance is the warm-start distance in [0, 1].
	Distance float64
	// ColdEpisodes is the budget a cold run would have trained;
	// WarmEpisodes is the distance-scaled budget actually trained.
	ColdEpisodes int
	WarmEpisodes int
}

// Derive trains a policy for inst by warm-starting from an existing
// policy instead of from zeros: the source Q table is re-indexed onto
// the target catalog (exact item ids first, topic similarity second),
// training seeds from the mapped values, and the episode budget scales
// down with the warm-start distance — a catalog that changed by k of n
// items retrains roughly k/n of the cold budget, floored at 10%. The
// source must come from a value-based engine (sarsa, qlearning,
// valueiter); the derived policy trains with the source's TD rule
// (SARSA for valueiter sources).
func Derive(ctx context.Context, src *Policy, inst *Instance, opts Options) (*Policy, DeriveStats, error) {
	if src == nil || inst == nil {
		return nil, DeriveStats{}, fmt.Errorf("rlplanner: nil source policy or instance")
	}
	pol, stats, err := engine.Derive(ctx, src.p, inst.inner, opts.toCore())
	if err != nil {
		return nil, DeriveStats{}, err
	}
	return &Policy{inst: inst, p: pol}, DeriveStats{
		Source:       stats.Source,
		Distance:     stats.Distance,
		ColdEpisodes: stats.ColdEpisodes,
		WarmEpisodes: stats.WarmEpisodes,
	}, nil
}

// Transfer maps the policy's learned values onto a related instance
// without training (the §IV-D case study: DS-CT ↔ CS, NYC ↔ Paris):
// items match by exact id first, topic similarity second. opts
// configure the target's serving environment the same way they would
// configure training. Only value-based policies (sarsa, qlearning,
// valueiter) transfer; baseline policies return an error.
func (p *Policy) Transfer(to *Instance, opts Options) (*Policy, error) {
	if to == nil {
		return nil, fmt.Errorf("rlplanner: nil instance")
	}
	pol, _, err := engine.Transfer(p.p, to.inner, opts.toCore())
	if err != nil {
		return nil, err
	}
	return &Policy{inst: to, p: pol}, nil
}

// Engine returns the canonical name of the engine that produced the
// policy.
func (p *Policy) Engine() string { return p.p.Engine() }

// EpisodesTrained returns how many learning episodes the policy's
// training run completed: the full budget for a complete run, fewer for
// one checkpointed at its TrainBudget deadline (see Degraded), and 0
// for engines without an episodic learning loop.
func (p *Policy) EpisodesTrained() int { return engine.Episodes(p.p) }

// LearningCurve returns the reward collected per learning episode of
// the policy's training run: nil for engines without an episodic
// learning loop and for policies loaded from an artifact or transferred.
func (p *Policy) LearningCurve() []float64 {
	vp, ok := p.p.(engine.ValuePolicy)
	if !ok {
		return nil
	}
	return append([]float64(nil), vp.LearningCurve()...)
}

// WarmStartedFrom reports warm-start provenance for policies produced
// by Derive: the source instance's name and the warm-start distance.
// Cold-trained policies return ("", 0).
func (p *Policy) WarmStartedFrom() (source string, distance float64) {
	return engine.WarmStart(p.p)
}

// MatchDistance returns the warm-start distance from the policy's
// training catalog to inst: the fraction of inst's items without an
// exact-id match in the source catalog, in [0, 1]. Serving layers use
// it to rank candidate sources before paying for Derive. Only
// value-based policies carry a catalog; others return an error.
func (p *Policy) MatchDistance(inst *Instance) (float64, error) {
	vp, ok := p.p.(engine.ValuePolicy)
	if !ok || vp.Values() == nil {
		return 0, fmt.Errorf("rlplanner: engine %s policies carry no catalog to match against", p.Engine())
	}
	if inst == nil {
		return 0, fmt.Errorf("rlplanner: nil instance")
	}
	return transfer.Match(vp.Env().Catalog(), inst.inner.Catalog).Distance(), nil
}

// MemoryBytes estimates the policy artifact's resident memory (the Q
// table for value-based engines, a small constant for the procedural
// baselines) — the figure the serving metrics aggregate per cache.
func (p *Policy) MemoryBytes() int { return engine.PolicyBytes(p.p) }

// Fingerprint identifies the catalog the policy was trained on; loading
// an artifact against an instance with a different fingerprint fails.
func (p *Policy) Fingerprint() string { return p.p.Fingerprint() }

// Degraded reports the policy's degradation marker: "" for a fully
// trained artifact, "partial" for a SARSA run checkpointed at its
// training deadline (Options.TrainBudget). A partial policy still walks
// the validity-guarded recommendation procedure, so its plans respect
// the hard constraints — they are best-effort on the soft score only.
func (p *Policy) Degraded() string { return engine.Degradation(p.p) }

// Recommend produces a plan from the given start item id ("" uses the
// start the policy was trained with). Safe for concurrent use.
func (p *Policy) Recommend(startID string) (*Plan, error) {
	start := engine.DefaultStart
	if startID != "" {
		idx, ok := p.inst.inner.Catalog.Index(startID)
		if !ok {
			return nil, fmt.Errorf("rlplanner: unknown item %q", startID)
		}
		start = idx
	}
	seq, err := p.p.Recommend(start)
	if err != nil {
		return nil, err
	}
	return newPlan(p.inst, p.p.Hard(), seq), nil
}

// Save writes the policy as a versioned artifact carrying the engine
// name and the training catalog's fingerprint. LoadPolicyArtifact
// restores it.
func (p *Policy) Save(w io.Writer) error { return p.p.Save(w) }

// NewSession opens an interactive session served from this policy with
// k suggestions per round (k ≤ 0 selects 3). Only value-based policies
// (sarsa, qlearning, valueiter) can drive sessions; baseline policies
// return an error.
func (p *Policy) NewSession(k int) (*Session, error) {
	vp, ok := p.p.(engine.ValuePolicy)
	if !ok {
		return nil, fmt.Errorf("rlplanner: engine %s has no action values; interactive sessions need a value-based policy (one of sarsa, qlearning, valueiter)", p.Engine())
	}
	s, err := session.New(vp.Env(), vp.Values(), vp.Start(), k)
	if err != nil {
		return nil, err
	}
	return &Session{inst: p.inst, s: s}, nil
}

// LoadPolicyArtifact restores a policy saved with Policy.Save against
// the instance, verifying the format version and the catalog
// fingerprint. opts rebind the serving environment the same way they
// would configure training.
func LoadPolicyArtifact(r io.Reader, inst *Instance, opts Options) (*Policy, error) {
	if inst == nil {
		return nil, fmt.Errorf("rlplanner: nil instance")
	}
	pol, err := engine.Load(r, inst.inner, opts.toCore())
	if err != nil {
		return nil, err
	}
	return &Policy{inst: inst, p: pol}, nil
}
