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
	// Fingerprint identifies the catalog the policy was trained on; Load
	// refuses artifacts whose fingerprint does not match the target
	// instance.
	Fingerprint() string
	// Hard returns the effective hard constraints the policy was trained
	// under (options may have overridden the instance defaults).
	Hard() constraints.Hard
	// Recommend walks the policy from a start item index (DefaultStart
	// uses the trained start) and returns the recommended sequence of
	// catalog indices.
	Recommend(start int) ([]int, error)
	// Save writes the policy as a versioned, fingerprinted artifact that
	// Load can restore.
	Save(w io.Writer) error
}

// ValuePolicy is implemented by policies backed by a learned Q table
// (SARSA, Q-learning, value iteration). Interactive sessions and transfer
// need the underlying table and environment.
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
}

// LayeredPolicy is implemented by policies whose action values can be
// read through a qtable.Reader — the hook fleet-scale personalization
// layers per-user overlays on. Procedural baselines (EDA, OMEGA, gold)
// carry no action values and do not implement it; serving layers fall
// back to the plain Recommend for them.
type LayeredPolicy interface {
	Policy
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

// Layered returns p as a LayeredPolicy when its action values support
// overlay reads, or (nil, false) for value-free solvers.
func Layered(p Policy) (LayeredPolicy, bool) {
	l, ok := p.(LayeredPolicy)
	return l, ok
}

// Converger is implemented by policies that track solver convergence
// (value iteration reports its sweep count).
type Converger interface {
	// Iterations returns the number of solver iterations until
	// convergence.
	Iterations() int
}

// DegradedPolicy is implemented by policies that carry a degradation
// marker. Every built-in policy implements it; Degradation returns ""
// for a fully trained artifact and a short reason otherwise —
// DegradedPartial for a SARSA run checkpointed at its training deadline.
// Serving layers surface the marker ("degraded": true) so clients can
// tell a best-effort answer from a converged one.
type DegradedPolicy interface {
	Policy
	// Degradation returns "" for a complete policy, or the reason the
	// artifact is best-effort (e.g. DegradedPartial).
	Degradation() string
}

// DegradedPartial marks a policy checkpointed at a training deadline:
// usable, validity-guarded, but short of its configured episode budget.
const DegradedPartial = "partial"

// Degradation reports a policy's degradation marker, "" for policies
// that are complete or carry no marker.
func Degradation(p Policy) string {
	if d, ok := p.(DegradedPolicy); ok {
		return d.Degradation()
	}
	return ""
}

// EpisodicPolicy is implemented by policies that record how many
// learning episodes actually completed — the full budget for a complete
// run, fewer for one checkpointed at its training deadline. Paired with
// DegradedPartial it tells operators how far a degraded artifact got.
type EpisodicPolicy interface {
	Policy
	// Episodes returns the completed learning-episode count (0 for
	// solvers without an episodic loop).
	Episodes() int
}

// Episodes reports a policy's completed learning-episode count, 0 for
// policies that carry none.
func Episodes(p Policy) int {
	if e, ok := p.(EpisodicPolicy); ok {
		return e.Episodes()
	}
	return 0
}

// WarmStartedPolicy is implemented by policies that record warm-start
// provenance: derived policies name the artifact they were seeded from
// and the transfer mapping's warm-start distance.
type WarmStartedPolicy interface {
	Policy
	// WarmStart returns ("", 0) for cold-trained policies.
	WarmStart() (source string, distance float64)
}

// WarmStart reports a policy's warm-start provenance, ("", 0) for
// cold-trained policies or ones that carry none.
func WarmStart(p Policy) (string, float64) {
	if w, ok := p.(WarmStartedPolicy); ok {
		return w.WarmStart()
	}
	return "", 0
}
