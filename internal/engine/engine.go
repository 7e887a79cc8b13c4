// Package engine is the unified solver layer of the repository: one
// abstraction over every planner the paper evaluates (the SARSA core of
// Algorithm 1, its Q-learning variant, the value-iteration solver, and
// the EDA / OMEGA / gold baselines of §IV-A2).
//
// The central split is train versus serve. Train runs a solver on one
// (instance, options) pair and produces a Policy — an immutable,
// versioned, serializable artifact that recommends plans without any
// further learning. Policies are safe to share across goroutines, which
// is what the HTTP serving path relies on: train once behind a
// singleflight, then serve many concurrent Recommend calls from the same
// artifact (the deployment shape of §IV-F, thousands of users per
// learned policy).
//
// Solvers register themselves in a name-keyed registry (registry.go), so
// the HTTP API, the CLIs and the experiment harness all dispatch through
// Train instead of hand-rolled string switches.
package engine

import (
	"io"

	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/qtable"
	"github.com/rlplanner/rlplanner/internal/sarsa"
)

// DefaultStart asks Recommend to use the start item the policy was
// trained with (Options.Start, falling back to the instance default).
const DefaultStart = -1

// Policy is a trained, immutable recommendation artifact. All methods
// are safe for concurrent use; a Policy never mutates after Train.
type Policy interface {
	// Engine returns the canonical name of the solver that produced the
	// policy.
	Engine() string
	// Instance returns the name of the instance the policy was trained on.
	Instance() string
	// Fingerprint identifies the catalog the policy was trained on: the
	// instance's content digest (dataset.Instance.Digest), which covers
	// the kind, the vocabulary, every field of every item and P_soft but
	// not the name, and is computed once per instance. An artifact
	// records it, and Load refuses the artifact against an instance with
	// another one: the Q table's indices, and the environment they were
	// learned in, would silently mean different items otherwise.
	Fingerprint() string
	// Hard returns the effective hard constraints the policy was trained
	// under (options may have overridden the instance defaults).
	Hard() constraints.Hard
	// Degradation returns "" for a complete policy, or the reason the
	// artifact is best-effort: DegradedPartial for a SARSA run
	// checkpointed at its training deadline. Serving layers surface the
	// marker ("degraded": true) so clients can tell a best-effort answer
	// from a converged one.
	Degradation() string
	// Episodes returns how many learning episodes completed: the full
	// budget for a complete run, fewer for one checkpointed at its
	// training deadline, 0 for solvers without an episodic loop.
	Episodes() int
	// WarmStart returns the warm-start provenance of a derived policy:
	// the instance it was seeded from and the transfer mapping's
	// warm-start distance, ("", 0) for a cold-trained policy.
	WarmStart() (source string, distance float64)
	// Recommend walks the policy from a start item index (DefaultStart
	// uses the trained start) and returns the recommended sequence of
	// catalog indices.
	Recommend(start int) ([]int, error)
	// Save writes the policy as a versioned, fingerprinted artifact that
	// Load can restore.
	Save(w io.Writer) error
}

// ValuePolicy is implemented by policies backed by a learned Q table
// (SARSA, Q-learning, value iteration). Interactive sessions, transfer
// and per-user overlays need the underlying table and environment.
// Procedural baselines (EDA, OMEGA, gold) carry no action values and do
// not implement it.
type ValuePolicy interface {
	Policy
	// Env returns the MDP environment the policy was trained in.
	Env() *mdp.Env
	// Values returns the learned action-value policy.
	Values() *sarsa.Policy
	// Start returns the trained start item index.
	Start() int
	// LearningCurve returns per-episode returns (nil for solvers without
	// an episodic learning loop).
	LearningCurve() []float64
	// Iterations returns the number of solver iterations until
	// convergence (value iteration's sweep count, 0 for the TD learners).
	Iterations() int
	// BaseReader returns the policy's frozen serve-time read surface (the
	// trained Q table) — the base a per-user qtable.Overlay wraps. The
	// returned reader must not be mutated.
	BaseReader() qtable.Reader
	// RecommendOver is Recommend reading every action value through r.
	// Passing nil or BaseReader() itself reproduces Recommend bit for
	// bit; passing an overlay over BaseReader() serves the personalized
	// walk with unshadowed states read straight from the table.
	RecommendOver(start int, r qtable.Reader) ([]int, error)
}

// Layered returns p as a ValuePolicy, or (nil, false) for value-free
// solvers; it is the type assertion, kept for the benchmark module's
// replay, which calls it by name.
func Layered(p Policy) (ValuePolicy, bool) {
	v, ok := p.(ValuePolicy)
	return v, ok
}

// DegradedPartial marks a policy checkpointed at a training deadline:
// usable, validity-guarded, but short of its configured episode budget.
const DegradedPartial = "partial"

// Episodes reports a policy's completed learning-episode count; it is
// p.Episodes(), kept for the benchmark module's replay, which calls it
// by name.
func Episodes(p Policy) int { return p.Episodes() }
