// Package core assembles the RL-Planner computational framework of §III:
// it wires a dataset instance (catalog + constraints + Table III defaults)
// into an MDP environment with the Equation 2 reward, learns a policy with
// SARSA (Algorithm 1), and produces recommendations. This is the layer the
// public API, the CLIs and the experiment harness drive.
package core

import (
	"context"
	"fmt"
	"time"

	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/qtable"
	"github.com/rlplanner/rlplanner/internal/reward"
	"github.com/rlplanner/rlplanner/internal/sarsa"
	"github.com/rlplanner/rlplanner/internal/seqsim"
)

// Options override the instance's Table III defaults; zero values mean
// "use the default". They are the knobs the robustness study (§IV-E)
// sweeps.
type Options struct {
	// Episodes overrides N.
	Episodes int
	// Alpha overrides the learning rate α.
	Alpha float64
	// Gamma overrides the discount factor γ (set HasGamma for γ = 0).
	Gamma float64
	// HasGamma marks Gamma as intentionally set (0 is meaningful).
	HasGamma bool
	// Epsilon overrides the topic threshold ε (set HasEpsilon for ε = 0).
	Epsilon float64
	// HasEpsilon marks Epsilon as intentionally set (0 is meaningful).
	HasEpsilon bool
	// Delta and Beta override the reward mix; both must be set together.
	Delta, Beta float64
	// W1 and W2 override the type weights; both must be set together.
	W1, W2 float64
	// CategoryWeights overrides the per-sub-discipline weights.
	CategoryWeights []float64
	// Sim overrides the similarity aggregation mode.
	Sim seqsim.Mode
	// HasSim marks Sim as intentionally set (Average is the zero value).
	HasSim bool
	// Start overrides the starting item id (s_1).
	Start string
	// Selection overrides the learner's action-selection rule.
	Selection sarsa.Selection
	// Algorithm overrides the TD update rule (SARSA by default).
	Algorithm sarsa.Algorithm
	// SoftThetaGate switches Eq. 5's multiplicative gate to the
	// subtractive-penalty ablation variant (reward.Config.SoftGate).
	SoftThetaGate bool
	// Explore overrides the exploration probability.
	Explore float64
	// DisableExplore runs Algorithm 1 exactly as printed (no exploration).
	DisableExplore bool
	// Seed drives all randomness (0 is a valid fixed seed).
	Seed int64
	// TimeLimit overrides the trip time threshold t (hours).
	TimeLimit float64
	// MaxDistanceKm overrides the trip distance threshold d; negative
	// disables the check.
	MaxDistanceKm float64
	// TrainBudget bounds the wall-clock time of one training run (0 = no
	// bound). The engine layer derives a deadline context from it; SARSA
	// checkpoints its Q table at the deadline and returns the best-so-far
	// policy marked "partial" instead of an error.
	TrainBudget time.Duration
	// TrainWorkers selects the training schedule (sarsa.Config.Workers):
	// 0 keeps the sequential Algorithm 1 loop; any value >= 1 uses the
	// batch-synchronous parallel protocol, which is bit-identical for
	// every worker count. Not part of the environment key — a worker
	// count never changes what is learned under the parallel protocol.
	TrainWorkers int
	// DenseQMax overrides the catalog size up to which the learned Q
	// table uses the dense n² representation (<= 0 means
	// qtable.DefaultDenseMaxItems) — how the sparse-equivalence tests
	// train a sparse table on a small catalog.
	DenseQMax int
	// InitQ warm-starts learning from an existing Q table
	// (sarsa.Config.Init): the incremental-retraining path feeds a
	// transfer-mapped table from the nearest artifact here. The table is
	// cloned before use and must cover the instance's catalog size.
	InitQ *qtable.Table
	// OnEpisode, when non-nil, observes each completed learning episode
	// (sarsa.Config.OnEpisode) — an observability/test hook, not a
	// learning knob.
	OnEpisode func(i int)
}

// Planner is a configured RL-Planner for one instance.
type Planner struct {
	inst      *dataset.Instance
	env       *mdp.Env
	rewardCfg reward.Config
	sarsaCfg  sarsa.Config
	result    *sarsa.Result
}

// New builds a planner for the instance with the given overrides.
func New(inst *dataset.Instance, opts Options) (*Planner, error) {
	env, err := BuildEnv(inst, opts)
	if err != nil {
		return nil, err
	}
	return NewWithEnv(inst, opts, env)
}

// envConfig resolves the environment-determining configuration — the
// effective hard constraints and reward parameters after option
// overrides. Everything mdp.NewEnv consumes beyond these comes from the
// instance itself (catalog, soft constraints) or is derived from them
// (the trajectory budget), so two (instance, options) pairs with equal
// envConfig results share one environment.
func envConfig(inst *dataset.Instance, opts Options) (constraints.Hard, reward.Config, error) {
	if inst == nil {
		return constraints.Hard{}, reward.Config{}, fmt.Errorf("core: nil instance")
	}
	if err := inst.Validate(); err != nil {
		return constraints.Hard{}, reward.Config{}, err
	}
	d := inst.Defaults

	hard := inst.Hard
	if opts.TimeLimit > 0 && inst.Kind == dataset.TripPlanning {
		hard.Credits = opts.TimeLimit
	}
	if opts.MaxDistanceKm != 0 {
		if opts.MaxDistanceKm < 0 {
			hard.MaxDistanceKm = 0
		} else {
			hard.MaxDistanceKm = opts.MaxDistanceKm
		}
	}

	rc := reward.Config{
		Delta:    d.Delta,
		Beta:     d.Beta,
		Epsilon:  d.Epsilon,
		Weights:  reward.Weights{Primary: d.W1, Secondary: d.W2, Category: d.CategoryWeights},
		Sim:      d.Sim,
		Template: inst.Soft.Template,
	}
	if opts.Delta != 0 || opts.Beta != 0 {
		rc.Delta, rc.Beta = opts.Delta, opts.Beta
	}
	if opts.HasEpsilon || opts.Epsilon != 0 {
		rc.Epsilon = opts.Epsilon
	}
	if opts.W1 != 0 || opts.W2 != 0 {
		rc.Weights.Primary, rc.Weights.Secondary = opts.W1, opts.W2
	}
	if opts.CategoryWeights != nil {
		rc.Weights.Category = opts.CategoryWeights
	}
	if opts.HasSim {
		rc.Sim = opts.Sim
	}
	// Trip rewards track POI popularity (see reward.Config.PopularityScale).
	rc.PopularityScale = inst.Kind == dataset.TripPlanning
	rc.SoftGate = opts.SoftThetaGate
	return hard, rc, nil
}

// BuildEnv constructs the MDP environment for (instance, options)
// without a planner around it — the entry the engine layer's
// environment cache builds through.
func BuildEnv(inst *dataset.Instance, opts Options) (*mdp.Env, error) {
	hard, rc, err := envConfig(inst, opts)
	if err != nil {
		return nil, err
	}
	return mdp.NewEnv(inst.Catalog, hard, inst.Soft, rc, budgetFor(inst, hard))
}

// EnvKey returns a canonical key identifying the environment that
// BuildEnv would construct for (instance, options): the instance kind
// plus the resolved hard constraints and reward configuration. The key
// deliberately omits the catalog — callers caching environments across
// instances must scope it by the catalog fingerprint.
func EnvKey(inst *dataset.Instance, opts Options) (string, error) {
	hard, rc, err := envConfig(inst, opts)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d|%+v|%+v", inst.Kind, hard, rc), nil
}

// NewWithEnv is New with a prebuilt environment — typically one shared
// through the engine layer's cache. The environment must have been built
// by BuildEnv for an equivalent (instance, options) pair; a catalog-size
// mismatch is rejected, finer divergence is the caller's contract.
func NewWithEnv(inst *dataset.Instance, opts Options, env *mdp.Env) (*Planner, error) {
	_, rc, err := envConfig(inst, opts)
	if err != nil {
		return nil, err
	}
	if env == nil {
		return nil, fmt.Errorf("core: nil environment")
	}
	if env.NumItems() != inst.Catalog.Len() {
		return nil, fmt.Errorf("core: environment over %d items, catalog has %d",
			env.NumItems(), inst.Catalog.Len())
	}
	d := inst.Defaults

	startID := inst.DefaultStart
	if opts.Start != "" {
		startID = opts.Start
	}
	start, ok := inst.Catalog.Index(startID)
	if !ok {
		return nil, fmt.Errorf("core: start item %q not in catalog", startID)
	}

	sc := sarsa.Config{
		Episodes:       d.Episodes,
		Alpha:          d.Alpha,
		Gamma:          d.Gamma,
		Start:          start,
		Selection:      opts.Selection,
		Algorithm:      opts.Algorithm,
		Explore:        opts.Explore,
		DisableExplore: opts.DisableExplore,
		Seed:           opts.Seed,
		Workers:        opts.TrainWorkers,
		DenseQMax:      opts.DenseQMax,
		Init:           opts.InitQ,
		OnEpisode:      opts.OnEpisode,
	}
	if opts.Episodes != 0 {
		sc.Episodes = opts.Episodes
	}
	if opts.Alpha != 0 {
		sc.Alpha = opts.Alpha
	}
	if opts.HasGamma || opts.Gamma != 0 {
		sc.Gamma = opts.Gamma
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	return &Planner{inst: inst, env: env, rewardCfg: rc, sarsaCfg: sc}, nil
}

// budgetFor derives the trajectory budget H from the instance kind
// (§III-A): item-count for courses, visitation time for trips.
func budgetFor(inst *dataset.Instance, hard constraints.Hard) mdp.Budget {
	if inst.Kind == dataset.TripPlanning {
		return mdp.TimeBudget{Hours: hard.Credits, MaxItems: hard.Length()}
	}
	return mdp.CountBudget{H: hard.Length()}
}

// Instance returns the planner's dataset instance.
func (p *Planner) Instance() *dataset.Instance { return p.inst }

// Env returns the planner's MDP environment.
func (p *Planner) Env() *mdp.Env { return p.env }

// RewardConfig returns the effective Equation 2 configuration.
func (p *Planner) RewardConfig() reward.Config { return p.rewardCfg }

// SarsaConfig returns the effective learner configuration.
func (p *Planner) SarsaConfig() sarsa.Config { return p.sarsaCfg }

// Learn runs the learning phase. It may be called again to relearn (e.g.
// after option changes via a new Planner); the latest result wins.
func (p *Planner) Learn() error {
	return p.LearnContext(context.Background())
}

// LearnContext is Learn under a context deadline. When the context
// expires mid-run, the learner checkpoints: the best-so-far policy is
// installed and Partial reports true — the deadline produced a degraded
// policy, not a failure. A context dead before the first episode is an
// error and leaves any previous result in place.
func (p *Planner) LearnContext(ctx context.Context) error {
	res, err := sarsa.LearnContext(ctx, p.env, p.sarsaCfg)
	if err != nil {
		return err
	}
	p.result = res
	return nil
}

// Learned reports whether a policy is available.
func (p *Planner) Learned() bool { return p.result != nil }

// Partial reports whether the last Learn was checkpointed at a context
// deadline before completing its episode budget.
func (p *Planner) Partial() bool { return p.result != nil && p.result.Interrupted }

// TrainedEpisodes returns how many learning episodes the last Learn
// completed — the full budget for a complete run, fewer for one
// checkpointed at its deadline. Zero before Learn.
func (p *Planner) TrainedEpisodes() int {
	if p.result == nil {
		return 0
	}
	return p.result.EpisodesCompleted()
}

// MergeBatches returns how many deterministic merge rounds the last
// Learn ran under the parallel schedule (0 for the sequential schedule
// or before Learn).
func (p *Planner) MergeBatches() int {
	if p.result == nil {
		return 0
	}
	return p.result.MergeBatches
}

// Policy returns the learned policy, or nil before Learn.
func (p *Planner) Policy() *sarsa.Policy {
	if p.result == nil {
		return nil
	}
	return p.result.Policy
}

// SetPolicy installs an external policy (used by transfer learning). The
// policy must cover the same catalog size.
func (p *Planner) SetPolicy(pol *sarsa.Policy) error {
	if pol == nil || pol.Q == nil {
		return fmt.Errorf("core: nil policy")
	}
	if pol.Q.Size() != p.env.NumItems() {
		return fmt.Errorf("core: policy size %d vs catalog %d", pol.Q.Size(), p.env.NumItems())
	}
	p.result = &sarsa.Result{Policy: pol}
	return nil
}

// LearningCurve returns the per-episode returns of the last Learn call.
func (p *Planner) LearningCurve() []float64 {
	if p.result == nil {
		return nil
	}
	return append([]float64(nil), p.result.EpisodeReturns...)
}

// Plan recommends a sequence starting from the configured start item.
func (p *Planner) Plan() ([]int, error) {
	return p.PlanFrom(p.sarsaCfg.Start)
}

// PlanFrom recommends a sequence starting from a specific item index,
// using the guided (validity-aware) recommendation walk.
func (p *Planner) PlanFrom(start int) ([]int, error) {
	if p.result == nil {
		return nil, fmt.Errorf("core: Learn before Plan")
	}
	return p.result.Policy.RecommendGuided(p.env, start)
}

// PlanFromID is PlanFrom with an item id.
func (p *Planner) PlanFromID(id string) ([]int, error) {
	i, ok := p.inst.Catalog.Index(id)
	if !ok {
		return nil, fmt.Errorf("core: unknown item %q", id)
	}
	return p.PlanFrom(i)
}

// PlanRaw recommends with the plain Algorithm 1 walk (no validity
// filtering) — the variant the transfer-learning study uses to surface
// "bad" outcomes.
func (p *Planner) PlanRaw(start int) ([]int, error) {
	if p.result == nil {
		return nil, fmt.Errorf("core: Learn before Plan")
	}
	return p.result.Policy.Recommend(p.env, start)
}
