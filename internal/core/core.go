// Package core resolves the RL-Planner configuration of §III: Resolve
// turns a dataset instance (catalog + constraints + Table III defaults)
// and option overrides into one validated Config — the hard constraints
// P_hard, the Equation 2 reward and the SARSA learner of Algorithm 1 —
// and Config.BuildEnv wires the MDP environment from it. The engine
// layer caches that environment under Config.EnvKey and trains every
// learner on the resolved Config.
package core

import (
	"fmt"
	"math"
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

// Config is one resolved training configuration: the instance and the
// effective hard constraints, reward configuration and learner
// configuration after Options override the Table III defaults. Resolve
// builds and validates it once per training run; the environment, its
// cache key and the learner all read from this one value.
type Config struct {
	// Inst is the dataset instance being planned over.
	Inst *dataset.Instance
	// Hard is the effective P_hard: the instance's hard constraints with
	// the t and d overrides applied.
	Hard constraints.Hard
	// Reward is the effective Equation 2 configuration.
	Reward reward.Config
	// Sarsa is the effective learner configuration, with Start resolved
	// to a catalog index.
	Sarsa sarsa.Config
}

// Resolve turns (instance, options) into one validated Config. The
// learner's start item must be in the catalog, and both the learner and
// the reward configuration must pass their own Validate.
func Resolve(inst *dataset.Instance, opts Options) (Config, error) {
	if inst == nil {
		return Config{}, fmt.Errorf("core: nil instance")
	}
	if err := inst.Validate(); err != nil {
		return Config{}, err
	}
	if math.IsNaN(opts.TimeLimit) {
		return Config{}, fmt.Errorf("core: time limit t = %g, want a number", opts.TimeLimit)
	}
	if math.IsNaN(opts.MaxDistanceKm) {
		return Config{}, fmt.Errorf("core: distance threshold d = %g, want a number", opts.MaxDistanceKm)
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

	startID := inst.DefaultStart
	if opts.Start != "" {
		startID = opts.Start
	}
	start, ok := inst.Catalog.Index(startID)
	if !ok {
		return Config{}, fmt.Errorf("core: start item %q not in catalog", startID)
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
		return Config{}, err
	}
	if err := rc.Validate(); err != nil {
		return Config{}, err
	}
	return Config{Inst: inst, Hard: hard, Reward: rc, Sarsa: sc}, nil
}

// EnvKey identifies the environment BuildEnv constructs: the instance
// kind plus every field of the resolved hard constraints and reward
// configuration. %#v prints each field in Go syntax and never through a
// String method — constraints.Hard.String prints only the paper's
// quadruple, without d. The key omits the catalog, so callers caching
// environments across instances must scope it by the catalog
// fingerprint.
func (c Config) EnvKey() string {
	return fmt.Sprintf("%d|%#v|%#v", c.Inst.Kind, c.Hard, c.Reward)
}

// BuildEnv constructs the MDP environment of the configuration. Its
// trajectory budget H follows the instance kind (§III-A): item count for
// courses, visitation time for trips.
func (c Config) BuildEnv() (*mdp.Env, error) {
	var budget mdp.Budget = mdp.CountBudget{H: c.Hard.Length()}
	if c.Inst.Kind == dataset.TripPlanning {
		budget = mdp.TimeBudget{Hours: c.Hard.Credits, MaxItems: c.Hard.Length()}
	}
	return mdp.NewEnv(c.Inst.Catalog, c.Hard, c.Inst.Soft, c.Reward, budget)
}

// BuildEnv resolves (instance, options) and constructs the environment,
// without a cache.
func BuildEnv(inst *dataset.Instance, opts Options) (*mdp.Env, error) {
	c, err := Resolve(inst, opts)
	if err != nil {
		return nil, err
	}
	return c.BuildEnv()
}
