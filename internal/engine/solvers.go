package engine

import (
	"context"
	"io"
	"time"

	"github.com/rlplanner/rlplanner/internal/baselines/eda"
	"github.com/rlplanner/rlplanner/internal/baselines/gold"
	"github.com/rlplanner/rlplanner/internal/baselines/omega"
	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/qtable"
	"github.com/rlplanner/rlplanner/internal/sarsa"
	"github.com/rlplanner/rlplanner/internal/valueiter"
)

func init() {
	Register(Descriptor{
		Name:    "sarsa",
		Aliases: []string{"", "rl", "rl-planner"},
		Doc:     "SARSA learner of Algorithm 1 (the paper's RL-Planner)",
		Tabular: true,
		Train:   trainTD(sarsa.SARSA),
	})
	Register(Descriptor{
		Name:    "qlearning",
		Aliases: []string{"q-learning", "q"},
		Doc:     "off-policy Q-learning variant of the Algorithm 1 learner",
		Tabular: true,
		Train:   trainTD(sarsa.QLearning),
	})
	Register(Descriptor{
		Name:    "valueiter",
		Aliases: []string{"value-iteration", "vi"},
		Doc:     "value iteration over the item-pair abstraction (§III-C alternative)",
		Tabular: true,
		Train:   trainValueIter,
	})
	Register(Descriptor{
		Name:  "eda",
		Doc:   "greedy next-step EDA baseline (§IV-A2)",
		Train: trainEDA,
	})
	Register(Descriptor{
		Name:  "omega",
		Doc:   "adapted OMEGA co-coverage baseline (§IV-A2)",
		Train: trainOmega,
	})
	Register(Descriptor{
		Name:  "gold",
		Doc:   "gold-standard plan synthesizer (§IV-A2)",
		Train: trainGold,
	})
}

// meta carries the identity every policy shares.
type meta struct {
	engine   string
	instance string
	fp       string
	hard     constraints.Hard
	// degraded is "" for complete artifacts, DegradedPartial for a run
	// checkpointed at its training deadline.
	degraded string
	// episodes counts the learning episodes that actually completed — the
	// full budget for a complete run, fewer for a partial checkpoint, 0
	// for solvers without an episodic loop.
	episodes int
	// warmFrom names the source artifact a derived policy was seeded
	// from ("" for cold-trained policies); warmDistance is the transfer
	// mapping's warm-start distance at derivation time.
	warmFrom     string
	warmDistance float64
}

func (m meta) Engine() string         { return m.engine }
func (m meta) Instance() string       { return m.instance }
func (m meta) Fingerprint() string    { return m.fp }
func (m meta) Hard() constraints.Hard { return m.hard }
func (m meta) Degradation() string    { return m.degraded }
func (m meta) Episodes() int          { return m.episodes }

// WarmStart reports the provenance of a derived policy: the source it
// was seeded from ("" for cold-trained) and the warm-start distance.
func (m meta) WarmStart() (string, float64) { return m.warmFrom, m.warmDistance }

func metaFor(engine string, inst *dataset.Instance, hard constraints.Hard) meta {
	return meta{engine: engine, instance: inst.Name, fp: Fingerprint(inst), hard: hard}
}

// valuePolicy is the artifact of the tabular solvers: an immutable Q
// table plus the environment it was trained in.
type valuePolicy struct {
	meta
	env        *mdp.Env
	start      int
	values     *sarsa.Policy
	curve      []float64
	iterations int
	// mergeBatches counts the parallel schedule's merge rounds in the
	// training run that produced the policy (0 for the sequential
	// schedule, and for loaded or transferred values).
	mergeBatches int
}

// bindValues serves a Q table from inst's cached environment under
// opts — the rebinding an artifact load and a transfer share.
func bindValues(engine string, inst *dataset.Instance, opts core.Options, values *sarsa.Policy) (*valuePolicy, error) {
	c, env, err := resolve(context.Background(), inst, opts)
	if err != nil {
		return nil, err
	}
	return &valuePolicy{
		meta:   metaFor(engine, inst, env.Hard()),
		env:    env,
		start:  c.Sarsa.Start,
		values: values,
	}, nil
}

// MergeBatches reports how many deterministic merge rounds the parallel
// schedule ran while training p: 0 for the sequential schedule, for
// restored or transferred policies and for engines without a TD
// learner.
func MergeBatches(p Policy) int {
	if v, ok := p.(*valuePolicy); ok {
		return v.mergeBatches
	}
	return 0
}

func (p *valuePolicy) Recommend(start int) ([]int, error) {
	if start == DefaultStart {
		start = p.start
	}
	return p.values.RecommendGuided(p.env, start)
}

// BaseReader exposes the trained Q table as the overlay base.
func (p *valuePolicy) BaseReader() qtable.Reader { return p.values.Q }

// RecommendOver serves the guided walk reading action values through r
// (nil falls back to the policy's own Q table).
func (p *valuePolicy) RecommendOver(start int, r qtable.Reader) ([]int, error) {
	if start == DefaultStart {
		start = p.start
	}
	return p.values.RecommendGuidedOver(p.env, start, r)
}

func (p *valuePolicy) Env() *mdp.Env            { return p.env }
func (p *valuePolicy) Values() *sarsa.Policy    { return p.values }
func (p *valuePolicy) Start() int               { return p.start }
func (p *valuePolicy) LearningCurve() []float64 { return p.curve }
func (p *valuePolicy) Iterations() int          { return p.iterations }

func (p *valuePolicy) Save(w io.Writer) error {
	return saveArtifact(w, artifactFor(p.meta, p.values, 0))
}

// walkPolicy is the artifact of the procedural baselines: the walk is
// recomputed per Recommend from the immutable environment, so one policy
// serves concurrent requests.
type walkPolicy struct {
	meta
	start int
	seed  int64
	walk  func(start int) ([]int, error)
}

func (p *walkPolicy) Recommend(start int) ([]int, error) {
	if start == DefaultStart {
		start = p.start
	}
	return p.walk(start)
}

func (p *walkPolicy) Save(w io.Writer) error {
	return saveArtifact(w, artifactFor(p.meta, nil, p.seed))
}

// trainTD builds the SARSA/Q-learning training funcs. The engine name
// fixes the TD rule; Options.Algorithm is overridden so "sarsa" always
// means SARSA regardless of caller options.
func trainTD(alg sarsa.Algorithm) TrainFunc {
	name := "sarsa"
	if alg == sarsa.QLearning {
		name = "qlearning"
	}
	return func(ctx context.Context, inst *dataset.Instance, opts core.Options) (Policy, error) {
		opts.Algorithm = alg
		c, env, err := resolve(ctx, inst, opts)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// LearnContext checkpoints at the deadline: a run interrupted
		// after ≥1 episode yields the best-so-far Q table, which the
		// guided recommendation walk can still serve validly — the
		// artifact is marked partial rather than failing the request.
		begin := time.Now()
		res, err := sarsa.LearnContext(ctx, env, c.Sarsa)
		if err != nil {
			return nil, err
		}
		noteTrainRun(res.EpisodesCompleted(), res.MergeBatches, time.Since(begin), opts.InitQ != nil)
		m := metaFor(name, inst, env.Hard())
		m.episodes = res.EpisodesCompleted()
		if res.Interrupted {
			m.degraded = DegradedPartial
		}
		return &valuePolicy{
			meta:         m,
			env:          env,
			start:        c.Sarsa.Start,
			values:       res.Policy,
			curve:        res.EpisodeReturns,
			mergeBatches: res.MergeBatches,
		}, nil
	}
}

func trainValueIter(ctx context.Context, inst *dataset.Instance, opts core.Options) (Policy, error) {
	c, env, err := resolve(ctx, inst, opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Value iteration needs γ < 1 to converge; the resolved SARSA config
	// carries the effective γ (option override or Table III default).
	gamma := c.Sarsa.Gamma
	if gamma >= 1 {
		gamma = 0.95
	}
	res, err := valueiter.Solve(env, valueiter.Config{Gamma: gamma, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	return &valuePolicy{
		meta:       metaFor("valueiter", inst, env.Hard()),
		env:        env,
		start:      c.Sarsa.Start,
		values:     res.Policy,
		iterations: res.Iterations,
	}, nil
}

func trainEDA(ctx context.Context, inst *dataset.Instance, opts core.Options) (Policy, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, env, err := resolve(ctx, inst, opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seed := opts.Seed
	// The greedy walk itself runs at Recommend time under the serving
	// path's own guard; the training context must not outlive Train.
	return &walkPolicy{
		meta:  metaFor("eda", inst, env.Hard()),
		start: c.Sarsa.Start,
		seed:  seed,
		walk:  func(start int) ([]int, error) { return eda.Plan(env, start, seed) },
	}, nil
}

func trainOmega(ctx context.Context, inst *dataset.Instance, opts core.Options) (Policy, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, env, err := resolve(ctx, inst, opts)
	if err != nil {
		return nil, err
	}
	// The co-coverage utility matrix is start-independent: compute it once
	// at train time (checking the deadline per row), share it across
	// Recommend calls.
	m, err := omega.CoCoverageContext(ctx, env.Catalog())
	if err != nil {
		return nil, err
	}
	return &walkPolicy{
		meta:  metaFor("omega", inst, env.Hard()),
		start: c.Sarsa.Start,
		walk:  func(start int) ([]int, error) { return omega.PlanUtility(env, start, m) },
	}, nil
}

func trainGold(ctx context.Context, inst *dataset.Instance, _ core.Options) (Policy, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The gold synthesizer is the pure train-once case: the plan does not
	// depend on the start item, so Train computes it (under the training
	// deadline) and Recommend only copies it out.
	seq, err := gold.PlanContext(ctx, inst)
	if err != nil {
		return nil, err
	}
	return &walkPolicy{
		meta:  metaFor("gold", inst, inst.Hard),
		start: inst.StartIndex(),
		walk:  func(int) ([]int, error) { return append([]int(nil), seq...), nil },
	}, nil
}
