package engine

import (
	"context"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/mdp"
)

// DefaultEnvCacheSize bounds the process-wide environment cache. An
// environment is a pure function of (catalog, resolved constraints,
// resolved reward config), and building one compiles prerequisite
// programs and possibly a quadratic distance matrix — work the serving
// path should pay once per configuration, not once per request.
const DefaultEnvCacheSize = 64

// envs is the process-wide environment cache: a bounded LRU with
// per-key singleflight, so concurrent cold requests for the same
// configuration share one build. Environments are immutable and safe to
// share across trainers, policies and requests.
var envs = NewStore[*mdp.Env](DefaultEnvCacheSize)

// EnvFor returns the environment for (instance, options), building and
// caching it on first use. The cache key scopes core.EnvKey (the
// resolved kind + hard constraints + reward configuration) by the
// catalog fingerprint, so equal-config requests against different
// catalogs never share state.
func EnvFor(ctx context.Context, inst *dataset.Instance, opts core.Options) (*mdp.Env, error) {
	key, err := core.EnvKey(inst, opts)
	if err != nil {
		return nil, err
	}
	env, _, err := envs.GetOrTrain(ctx, Fingerprint(inst)+"|"+key, func() (*mdp.Env, error) {
		return core.BuildEnv(inst, opts)
	})
	return env, err
}

// newPlanner builds a core.Planner over the cached environment — the
// constructor every trainer and artifact load routes through instead of
// core.New, which rebuilds the environment from scratch.
func newPlanner(ctx context.Context, inst *dataset.Instance, opts core.Options) (*core.Planner, error) {
	env, err := EnvFor(ctx, inst, opts)
	if err != nil {
		return nil, err
	}
	return core.NewWithEnv(inst, opts, env)
}

// EnvCacheStats reports the environment cache's cumulative lookup
// counters and current size, for the serving metrics endpoint.
func EnvCacheStats() CacheStats { return envs.Stats() }

// EnvCacheBytes estimates the resident memory of the cached
// environments. The dominant terms are the distance store trip
// environments precompute (exact matrix, or quantized neighbor bands at
// scale — the store reports its own size) and the per-item
// catalog/prerequisite state; the figure is an operator-facing
// estimate, not an accounting of every allocation.
func EnvCacheBytes() int {
	return envs.SumBytes(func(env *mdp.Env) int {
		return env.NumItems()*512 + env.DistStoreBytes()
	})
}

// PolicyBytes estimates a policy artifact's resident memory: the Q
// table's own backing (8n² dense, visited-cells-proportional sparse)
// for value-based policies, a small constant for the procedural
// baselines (their plans are recomputed per request from the shared
// environment).
func PolicyBytes(p Policy) int {
	vp, ok := p.(ValuePolicy)
	if !ok || vp.Values() == nil || vp.Values().Q == nil {
		return 1 << 10
	}
	return vp.Values().Q.MemoryBytes()
}
