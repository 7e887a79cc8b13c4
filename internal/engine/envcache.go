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

// envs is the process-wide environment cache: a count-bounded CLOCK
// Store with per-key singleflight, so concurrent cold requests for the
// same configuration share one build. Environments are immutable and
// safe to share across trainers, policies and requests.
var envs = NewStore[*mdp.Env](DefaultEnvCacheSize)

// EnvFor returns the environment for (instance, options), building and
// caching it on first use.
func EnvFor(ctx context.Context, inst *dataset.Instance, opts core.Options) (*mdp.Env, error) {
	_, env, err := resolve(ctx, inst, opts)
	return env, err
}

// resolve resolves (instance, options) once and returns the resolved
// configuration with its cached environment — the set-up every trainer,
// artifact load and transfer shares. The cache key scopes the
// configuration's EnvKey (kind plus every field of the resolved hard
// constraints and reward configuration) by the instance's Digest, which
// covers every other instance field Config.BuildEnv reads, so two
// catalogs that differ anywhere (coordinates, prerequisites, T_ideal)
// never share an environment, and equal ones always do. The artifact
// Fingerprint is coarser and is not an env key.
func resolve(ctx context.Context, inst *dataset.Instance, opts core.Options) (core.Config, *mdp.Env, error) {
	c, err := core.Resolve(inst, opts)
	if err != nil {
		return core.Config{}, nil, err
	}
	env, _, err := envs.GetOrTrain(ctx, inst.Digest()+"|"+c.EnvKey(), c.BuildEnv)
	return c, env, err
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
	n := 0
	envs.Range(func(_ string, env *mdp.Env) { n += env.NumItems()*512 + env.DistStoreBytes() })
	return n
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
