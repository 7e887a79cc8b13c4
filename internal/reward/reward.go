// Package reward implements the weighted reward function of §III-B that
// transforms the constrained MDP into an unconstrained one:
//
//	R(s_i, e_i, s_{i+1}) = θ · [δ·Sim_agg(s_{i+1}, IT) + β·weight_type]   (Eq. 2)
//	θ = r1 · r2                                                            (Eq. 5)
//	r1 = 1 iff |T_ideal ∩ (T_current' \ T_current)| ≥ ε                    (Eq. 3)
//	r2 = 1 iff Dist(pre^m, m) ≥ gap (AND/OR semantics)                     (Eq. 4)
//
// with δ + β = 1, weight_primary = w1, weight_secondary = w2, w1 + w2 = 1
// (and, for the Univ-2 instantiation, one weight per sub-discipline
// w1..w6). Sim_agg is AvgSim by default and MinSim in the paper's variant.
//
// The reward is pure: callers (the MDP environment) compute the transition
// facts — coverage gain, antecedent satisfaction, resulting type sequence —
// and the reward combines them. This keeps Eq. 2 testable in isolation and
// is the basis for the executable Theorem 1 property test.
package reward

import (
	"fmt"
	"math"

	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/seqsim"
)

// Weights carries the item-type weights of Eq. 2.
type Weights struct {
	// Primary is w1, the weight of primary items.
	Primary float64
	// Secondary is w2, the weight of secondary items; w1 + w2 = 1.
	Secondary float64
	// Category optionally assigns one weight per item category
	// (sub-disciplines a–f of the Univ-2 M.S. DS program, weights w1..w6
	// of Table III). When non-empty, an item with a valid Category uses
	// Category[cat] instead of the type weight.
	Category []float64
}

// Of returns the weight of an item with the given type and category.
func (w Weights) Of(t item.Type, category int) float64 {
	if len(w.Category) > 0 && category >= 0 && category < len(w.Category) {
		return w.Category[category]
	}
	if t == item.Primary {
		return w.Primary
	}
	return w.Secondary
}

// Config parameterizes Equation 2 for one planning problem.
type Config struct {
	// Delta is δ, the weight of the interleaving similarity term.
	Delta float64
	// Beta is β, the weight of the item-type term; δ + β = 1.
	Beta float64
	// Epsilon is ε, the topic-coverage gain threshold of Eq. 3. Two
	// regimes reconcile the paper's usages: ε ≥ 1 (the worked example)
	// thresholds the raw gain count; ε < 1 (the Table III defaults and the
	// Table IX/XII sweeps, 0.0025–0.02) thresholds the gain as a fraction
	// of |T_ideal| — with |T_ideal| = 60, ε = 0.02 demands ⌈1.2⌉ = 2 newly
	// covered topics, which is what makes the sweep's scores collapse to 0
	// at ε = 0.02 exactly as Table IX reports.
	Epsilon float64
	// Weights are the item-type weights (w1, w2, optionally w1..w6).
	Weights Weights
	// Sim selects average (default) or minimum similarity aggregation.
	Sim seqsim.Mode
	// Template is IT, the interleaving template the similarity term uses.
	Template constraints.Template
	// PopularityScale, used by the trip instantiation, scales the item
	// weight by the POI's popularity (weight · popularity/5): the paper's
	// trip scores track POI popularity, which the pure type weight cannot
	// express because it is constant within a type (see DESIGN.md §3).
	PopularityScale bool
	// SoftGate replaces Equation 5's multiplicative θ gate with a
	// subtractive penalty: R = δ·sim + β·w − (1−θ)·SoftGatePenalty. The
	// paper's design zeroes invalid actions outright; this ablation
	// variant lets the learner trade validity against similarity (see
	// BenchmarkAblationThetaGate).
	SoftGate bool
}

// SoftGatePenalty is the (1−θ) penalty magnitude of the SoftGate variant.
const SoftGatePenalty = 2.0

// Validate checks that every weight and ε is finite, and the
// normalization constraints of Eq. 2: δ+β = 1 and, unless per-category
// weights are used, w1+w2 = 1. It deliberately does
// NOT require w1 > w2 — the robustness study sweeps weight settings that
// break Theorem 1's Case II premise (Table IX tries w1/w2 = 0.4/0.6 and
// 0.5/0.5 and observes degraded or zero scores); use
// SatisfiesTheorem1Premise to test the premise separately.
func (c Config) Validate() error {
	const tol = 1e-9
	for _, f := range []struct {
		name string
		v    float64
	}{{"δ", c.Delta}, {"β", c.Beta}, {"ε", c.Epsilon}, {"w1", c.Weights.Primary}, {"w2", c.Weights.Secondary}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("reward: %s = %g, want a finite number", f.name, f.v)
		}
	}
	for i, w := range c.Weights.Category {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("reward: category weight w%d = %g, want a finite number", i+1, w)
		}
	}
	if math.Abs(c.Delta+c.Beta-1) > tol {
		return fmt.Errorf("reward: δ+β = %g, want 1", c.Delta+c.Beta)
	}
	if c.Delta < 0 || c.Beta < 0 {
		return fmt.Errorf("reward: negative weight δ=%g β=%g", c.Delta, c.Beta)
	}
	if len(c.Weights.Category) == 0 {
		if math.Abs(c.Weights.Primary+c.Weights.Secondary-1) > tol {
			return fmt.Errorf("reward: w1+w2 = %g, want 1",
				c.Weights.Primary+c.Weights.Secondary)
		}
		if c.Weights.Primary < 0 || c.Weights.Secondary < 0 {
			return fmt.Errorf("reward: negative type weight w1=%g w2=%g",
				c.Weights.Primary, c.Weights.Secondary)
		}
	} else {
		var sum float64
		for i, w := range c.Weights.Category {
			if w < 0 {
				return fmt.Errorf("reward: negative category weight w%d = %g", i+1, w)
			}
			sum += w
		}
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("reward: Σ category weights = %g, want 1", sum)
		}
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("reward: negative ε = %g", c.Epsilon)
	}
	return nil
}

// SatisfiesTheorem1Premise reports whether w1 > w2, the premise of the
// Case II argument in Theorem 1's proof. Configurations violating it are
// legal to run (the robustness study does) but lose the split guarantee.
func (c Config) SatisfiesTheorem1Premise() bool {
	if len(c.Weights.Category) > 0 {
		return true
	}
	return c.Weights.Primary > c.Weights.Secondary
}

// Transition carries the facts about one action (adding item m to state
// s_i, yielding s_{i+1}) that Equation 2 consumes.
type Transition struct {
	// SeqTypes is the primary/secondary type sequence after the action
	// (the session at state s_{i+1}).
	SeqTypes []item.Type
	// CoverageGain is |T_ideal ∩ (T_current' \ T_current)|: how many ideal
	// topics the action newly covers (input to r1, Eq. 3).
	CoverageGain int
	// IdealSize is |T_ideal|, the denominator of the fractional ε regime.
	IdealSize int
	// PrereqOK reports whether the item's antecedent expression holds at
	// its position with the required gap (r2, Eq. 4).
	PrereqOK bool
	// ThemeOK reports the trip-planning theme-gap rule: false when the item
	// repeats the previous item's theme. Course planning always sets true.
	// It folds into r2 because the paper defines the trip gap as "not
	// visiting two POIs of the same theme consecutively" (§IV-A1).
	ThemeOK bool
	// Type is type^m of the added item.
	Type item.Type
	// Category is the added item's category (sub-discipline/theme) or
	// item.NoCategory.
	Category int
	// Popularity is the added POI's 1–5 popularity (0 for courses).
	Popularity float64
}

// R1 evaluates Equation 3: 1 when the topic coverage gain meets ε.
// For ε ≥ 1 the raw gain count is thresholded; for ε < 1 the gain as a
// fraction of |T_ideal| is (see Config.Epsilon). With ε < 1 a zero gain
// never passes, so adding an item that covers nothing new is always
// invalid — the paper's elimination of "items that are poor in topic
// coverage". It takes a pointer so the per-candidate callers copy no
// Config.
func (c *Config) R1(coverageGain, idealSize int) float64 {
	if c.Epsilon >= 1 {
		if float64(coverageGain) >= c.Epsilon {
			return 1
		}
		return 0
	}
	if coverageGain <= 0 {
		return 0
	}
	if idealSize <= 0 {
		return 1
	}
	if float64(coverageGain)/float64(idealSize) >= c.Epsilon {
		return 1
	}
	return 0
}

// R2 evaluates Equation 4 extended with the trip theme-gap rule.
func (c Config) R2(prereqOK, themeOK bool) float64 {
	if prereqOK && themeOK {
		return 1
	}
	return 0
}

// Theta evaluates Equation 5: θ = r1 · r2.
func (c Config) Theta(tr Transition) float64 {
	return c.R1(tr.CoverageGain, tr.IdealSize) * c.R2(tr.PrereqOK, tr.ThemeOK)
}

// Reward evaluates Equation 2 for one transition.
func (c Config) Reward(tr Transition) float64 {
	theta := c.Theta(tr)
	if theta == 0 && !c.SoftGate {
		return 0
	}
	return c.Combine(theta, c.Similarity(tr.SeqTypes), tr.Type, tr.Category, tr.Popularity)
}

// Similarity returns Sim_agg(s_{i+1}, IT), Equation 2's interleaving
// term for the type sequence after an action.
func (c *Config) Similarity(seqTypes []item.Type) float64 {
	return seqsim.Aggregate(c.Sim, seqTypes, c.Template)
}

// Weight returns Equation 2's static item weight: the type or category
// weight, scaled by popularity/5 under PopularityScale. Combine reads it
// the same way, so items with equal type and Weight score bit-identical
// rewards whenever their gates agree.
func (c *Config) Weight(t item.Type, category int, popularity float64) float64 {
	w := c.Weights.Of(t, category)
	if c.PopularityScale && popularity > 0 {
		w *= popularity / 5
	}
	return w
}

// Combine evaluates Equation 2 from its parts: the gate θ, the
// similarity term and the added item's type, category and popularity.
// Reward calls it, and so does the MDP's per-candidate scan, which
// scores the similarity once per item type per step; sharing the
// arithmetic keeps the two bit-identical.
func (c *Config) Combine(theta, sim float64, t item.Type, category int, popularity float64) float64 {
	base := c.Delta*sim + c.Beta*c.Weight(t, category, popularity)
	if c.SoftGate {
		return base - (1-theta)*SoftGatePenalty
	}
	return theta * base
}

// DefaultCourseConfig returns the Table III defaults for course planning:
// δ=0.8, β=0.2, ε=0.0025, w1=0.6, w2=0.4, average similarity.
// (Table XI identifies w1=0.6/w2=0.4 and δ=0.6/β=0.4 as the best Univ-1
// reward weights; Table III's header row lists δ=0.8/β=0.2 as the default.)
func DefaultCourseConfig(it constraints.Template) Config {
	return Config{
		Delta:    0.8,
		Beta:     0.2,
		Epsilon:  0.0025,
		Weights:  Weights{Primary: 0.6, Secondary: 0.4},
		Sim:      seqsim.Average,
		Template: it,
	}
}

// DefaultTripConfig returns the Table III defaults for trip planning:
// δ=0.6, β=0.4, ε=0.0025, w1=0.6, w2=0.4, average similarity.
func DefaultTripConfig(it constraints.Template) Config {
	return Config{
		Delta:    0.6,
		Beta:     0.4,
		Epsilon:  0.0025,
		Weights:  Weights{Primary: 0.6, Secondary: 0.4},
		Sim:      seqsim.Average,
		Template: it,
	}
}

// Univ2CategoryWeights returns the Table III sub-discipline weights
// w1..w6 = 0.25, 0.01, 0.15, 0.42, 0.01, 0.16 for the Stanford M.S. DS
// program's six sub-disciplines a–f.
func Univ2CategoryWeights() []float64 {
	return []float64{0.25, 0.01, 0.15, 0.42, 0.01, 0.16}
}
