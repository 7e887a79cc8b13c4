// Package valueiter implements a value-iteration solver for the TPP MDP —
// the alternative §III-C weighs against policy iteration before adopting
// SARSA ("policy iteration is computationally more efficient and requires
// a smaller number of iterations to converge", citing Pashenkova et al.).
// It exists so the repository can check that claim empirically (see
// BenchmarkAblationSolver).
//
// TPP's reward depends on trajectory context (coverage, positions), so an
// exact value function would need the full episode state. Like the
// paper's Q table, this solver works on the item-pair abstraction: it
// iterates V over items using expected transition rewards sampled from
// rollout prefixes, then extracts a stationary policy Q(s,e) = r̄(s,e) +
// γ·V(e). The abstraction loses the same context SARSA's table loses, so
// the two are comparable solvers of the same approximate model.
package valueiter

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/qtable"
	"github.com/rlplanner/rlplanner/internal/sarsa"
)

// Config parameterizes the solver.
type Config struct {
	// Gamma is the discount factor γ.
	Gamma float64
	// Tolerance stops iteration when the value function moves less than
	// this (default 1e-6).
	Tolerance float64
	// MaxIterations bounds the sweeps (default 1000).
	MaxIterations int
	// RolloutSamples controls how many random rollouts estimate the
	// expected transition rewards r̄(s, e) (default 40).
	RolloutSamples int
	// Seed drives the reward-sampling rollouts.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Tolerance == 0 {
		c.Tolerance = 1e-6
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 1000
	}
	if c.RolloutSamples == 0 {
		c.RolloutSamples = 40
	}
	return c
}

// Result reports the solved policy and convergence diagnostics.
type Result struct {
	// Policy is the extracted policy, compatible with the SARSA
	// recommendation walks.
	Policy *sarsa.Policy
	// Iterations is the number of value sweeps until convergence.
	Iterations int
	// Residual is the final max-norm change of the value function.
	Residual float64
}

// Solve estimates expected rewards, iterates the value function to a
// fixed point, and extracts a Q policy.
func Solve(env *mdp.Env, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Gamma < 0 || cfg.Gamma >= 1 {
		return nil, fmt.Errorf("valueiter: γ = %g, want [0,1) for convergence", cfg.Gamma)
	}
	n := env.NumItems()
	if n == 0 {
		return nil, fmt.Errorf("valueiter: empty catalog")
	}

	rbar, err := expectedRewards(env, cfg)
	if err != nil {
		return nil, err
	}

	// Value iteration: V(s) = max_e [ r̄(s,e) + γ·V(e) ].
	v := make([]float64, n)
	var it int
	var residual float64
	for it = 1; it <= cfg.MaxIterations; it++ {
		residual = 0
		for s := 0; s < n; s++ {
			best := math.Inf(-1)
			for e := 0; e < n; e++ {
				if e == s {
					continue
				}
				if val := rbar[s][e] + cfg.Gamma*v[e]; val > best {
					best = val
				}
			}
			if best == math.Inf(-1) {
				best = 0
			}
			if d := math.Abs(best - v[s]); d > residual {
				residual = d
			}
			v[s] = best
		}
		if residual < cfg.Tolerance {
			break
		}
	}

	// Policy extraction: Q(s,e) = r̄(s,e) + γ·V(e).
	q := qtable.New(n)
	for s := 0; s < n; s++ {
		for e := 0; e < n; e++ {
			if e == s {
				continue
			}
			q.Set(s, e, rbar[s][e]+cfg.Gamma*v[e])
		}
	}
	return &Result{
		Policy:     &sarsa.Policy{Q: q},
		Iterations: it,
		Residual:   residual,
	}, nil
}

// expectedRewards estimates r̄(s, e) by sampling random trajectory
// prefixes and averaging the observed Equation 2 rewards of each (s, e)
// transition. Pairs never observed keep reward 0.
func expectedRewards(env *mdp.Env, cfg Config) ([][]float64, error) {
	n := env.NumItems()
	sum := make([][]float64, n)
	count := make([][]int, n)
	for i := range sum {
		sum[i] = make([]float64, n)
		count[i] = make([]int, n)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	rollouts := cfg.RolloutSamples * n
	var cands []int // reused across rollouts; the step loop allocates nothing
	var ep *mdp.Episode
	for k := 0; k < rollouts; k++ {
		start := rng.Intn(n)
		var err error
		if ep == nil {
			ep, err = env.Start(start)
		} else {
			err = ep.Reset(start)
		}
		if err != nil {
			return nil, err
		}
		s := start
		for !ep.Done() {
			cands = ep.AppendCandidates(cands[:0])
			if len(cands) == 0 {
				break
			}
			e := cands[rng.Intn(len(cands))]
			r := ep.Step(e)
			sum[s][e] += r
			count[s][e]++
			s = e
		}
	}

	for s := 0; s < n; s++ {
		for e := 0; e < n; e++ {
			if count[s][e] > 0 {
				sum[s][e] /= float64(count[s][e])
			}
		}
	}
	return sum, nil
}
