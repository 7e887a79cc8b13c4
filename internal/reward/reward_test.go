package reward

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/seqsim"
)

const (
	p = item.Primary
	s = item.Secondary
)

func example1Template() constraints.Template {
	return constraints.Template{
		{p, p, s, p, s, s},
		{p, s, s, s, p, p},
		{p, s, s, p, p, s},
	}
}

func validConfig() Config {
	return Config{
		Delta:    0.6,
		Beta:     0.4,
		Epsilon:  1,
		Weights:  Weights{Primary: 0.6, Secondary: 0.4},
		Sim:      seqsim.Average,
		Template: example1Template(),
	}
}

// TestValidateRefusesNonFinite: NaN passes every "<" and ">" test, so
// each weight and ε must refuse NaN and ±Inf explicitly, with an error
// naming the field.
func TestValidateRefusesNonFinite(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config, float64)
	}{
		{"δ", func(c *Config, v float64) { c.Delta = v }},
		{"β", func(c *Config, v float64) { c.Beta = v }},
		{"ε", func(c *Config, v float64) { c.Epsilon = v }},
		{"w1", func(c *Config, v float64) { c.Weights.Primary = v }},
		{"w2", func(c *Config, v float64) { c.Weights.Secondary = v }},
		{"w3", func(c *Config, v float64) {
			c.Weights = Weights{Category: Univ2CategoryWeights()}
			c.Weights.Category[2] = v
		}},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := validConfig()
			tc.set(&c, v)
			err := c.Validate()
			if err == nil {
				t.Errorf("%s = %g accepted", tc.field, v)
				continue
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s = %g: error %q does not name the field", tc.field, v, err)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	c := validConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	bad := c
	bad.Delta = 0.5 // δ+β = 0.9
	if err := bad.Validate(); err == nil {
		t.Fatal("δ+β ≠ 1 accepted")
	}

	// w1 ≤ w2 is legal to run (the robustness sweeps use it) but flagged
	// by the premise check.
	premiseless := c
	premiseless.Weights = Weights{Primary: 0.4, Secondary: 0.6}
	if err := premiseless.Validate(); err != nil {
		t.Fatalf("w1 ≤ w2 rejected by Validate: %v", err)
	}
	if premiseless.SatisfiesTheorem1Premise() {
		t.Fatal("w1 ≤ w2 passes the Theorem 1 premise check")
	}
	if !c.SatisfiesTheorem1Premise() {
		t.Fatal("w1 > w2 fails the Theorem 1 premise check")
	}

	bad = c
	bad.Weights = Weights{Primary: 0.5, Secondary: 0.6}
	if err := bad.Validate(); err == nil {
		t.Fatal("w1+w2 ≠ 1 accepted")
	}

	bad = c
	bad.Epsilon = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative ε accepted")
	}

	cat := c
	cat.Weights = Weights{Category: Univ2CategoryWeights()}
	if err := cat.Validate(); err != nil {
		t.Fatalf("Table III category weights rejected: %v", err)
	}
	cat.Weights.Category = []float64{0.5, 0.6}
	if err := cat.Validate(); err == nil {
		t.Fatal("non-normalized category weights accepted")
	}
	cat.Weights.Category = []float64{-0.1, 1.1}
	if err := cat.Validate(); err == nil {
		t.Fatal("negative category weight accepted")
	}
}

func TestR1Gate(t *testing.T) {
	c := validConfig() // ε = 1: count regime
	if c.R1(0, 60) != 0 {
		t.Fatal("gain 0 should fail ε=1")
	}
	if c.R1(1, 60) != 1 {
		t.Fatal("gain 1 should pass ε=1")
	}
	c.Epsilon = 2
	if c.R1(1, 60) != 0 || c.R1(2, 60) != 1 {
		t.Fatal("ε=2 semantics broken")
	}
	// Fractional regime (Table III / Table IX): gain is compared as a
	// fraction of |T_ideal|.
	c.Epsilon = 0.0025
	if c.R1(1, 60) != 1 || c.R1(0, 60) != 0 {
		t.Fatal("fractional ε semantics broken")
	}
	// ε = 0.02 with |T_ideal| = 60 demands 2 newly covered topics.
	c.Epsilon = 0.02
	if c.R1(1, 60) != 0 {
		t.Fatal("gain 1/60 should fail ε=0.02")
	}
	if c.R1(2, 60) != 1 {
		t.Fatal("gain 2/60 should pass ε=0.02")
	}
	// Degenerate ideal: any positive gain passes.
	if c.R1(1, 0) != 1 {
		t.Fatal("empty ideal should accept positive gains")
	}
}

func TestR2Gate(t *testing.T) {
	c := validConfig()
	if c.R2(true, true) != 1 {
		t.Fatal("satisfied antecedent should score 1")
	}
	if c.R2(false, true) != 0 {
		t.Fatal("unsatisfied antecedent should score 0")
	}
	if c.R2(true, false) != 0 {
		t.Fatal("theme repeat should score 0")
	}
}

func TestThetaIsProduct(t *testing.T) {
	c := validConfig()
	tr := Transition{CoverageGain: 3, PrereqOK: true, ThemeOK: true}
	if c.Theta(tr) != 1 {
		t.Fatal("θ should be 1 when both gates pass")
	}
	tr.PrereqOK = false
	if c.Theta(tr) != 0 {
		t.Fatal("θ should be 0 when r2 fails")
	}
	tr = Transition{CoverageGain: 0, PrereqOK: true, ThemeOK: true}
	if c.Theta(tr) != 0 {
		t.Fatal("θ should be 0 when r1 fails")
	}
}

func TestRewardEquation2(t *testing.T) {
	// Reward for a valid transition must equal δ·AvgSim + β·w_type exactly.
	c := validConfig()
	seq := []item.Type{p, s, p, p} // AvgSim = 1 per the paper's example
	tr := Transition{
		SeqTypes:     seq,
		CoverageGain: 1,
		PrereqOK:     true,
		ThemeOK:      true,
		Type:         item.Primary,
		Category:     item.NoCategory,
	}
	want := 0.6*1 + 0.4*0.6
	if got := c.Reward(tr); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Reward = %v, want %v", got, want)
	}

	tr.Type = item.Secondary
	want = 0.6*1 + 0.4*0.4
	if got := c.Reward(tr); math.Abs(got-want) > 1e-12 {
		t.Fatalf("secondary Reward = %v, want %v", got, want)
	}
}

func TestRewardGatedToZero(t *testing.T) {
	c := validConfig()
	tr := Transition{
		SeqTypes:     []item.Type{p},
		CoverageGain: 0, // fails ε = 1
		PrereqOK:     true,
		ThemeOK:      true,
		Type:         item.Primary,
	}
	if got := c.Reward(tr); got != 0 {
		t.Fatalf("gated reward = %v, want 0", got)
	}
}

func TestRewardMinimumSimilarityVariant(t *testing.T) {
	c := validConfig()
	c.Sim = seqsim.Minimum
	seq := []item.Type{p, s, p, p} // MinSim = 0.5 per the paper's example
	tr := Transition{SeqTypes: seq, CoverageGain: 1, PrereqOK: true, ThemeOK: true, Type: item.Primary}
	want := 0.6*0.5 + 0.4*0.6
	if got := c.Reward(tr); math.Abs(got-want) > 1e-12 {
		t.Fatalf("min-sim Reward = %v, want %v", got, want)
	}
}

func TestCategoryWeights(t *testing.T) {
	w := Weights{Primary: 0.6, Secondary: 0.4, Category: Univ2CategoryWeights()}
	if got := w.Of(item.Primary, 3); got != 0.42 {
		t.Fatalf("category weight = %v, want 0.42 (w4)", got)
	}
	// Out-of-range / NoCategory falls back to the type weight.
	if got := w.Of(item.Primary, item.NoCategory); got != 0.6 {
		t.Fatalf("fallback weight = %v, want 0.6", got)
	}
	if got := w.Of(item.Secondary, 99); got != 0.4 {
		t.Fatalf("out-of-range weight = %v, want 0.4", got)
	}
}

func TestPrimaryRewardExceedsSecondary(t *testing.T) {
	// The Case II argument of Theorem 1: with w1 > w2, a valid primary item
	// is always rewarded above a valid secondary item in the same state.
	c := validConfig()
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		k := 1 + int(uint(seed)%6)
		seqP := make([]item.Type, k)
		seqS := make([]item.Type, k)
		for i := 0; i < k-1; i++ {
			ty := item.Type(r.Intn(2))
			seqP[i], seqS[i] = ty, ty
		}
		seqP[k-1], seqS[k-1] = item.Primary, item.Secondary
		trP := Transition{SeqTypes: seqP, CoverageGain: 1, PrereqOK: true, ThemeOK: true, Type: item.Primary, Category: item.NoCategory}
		trS := Transition{SeqTypes: seqS, CoverageGain: 1, PrereqOK: true, ThemeOK: true, Type: item.Secondary, Category: item.NoCategory}
		// The β·w term always favors primary; the δ·Sim term differs only
		// through the final position's match, so compare with the same
		// sequence to isolate the weight ordering.
		trS2 := trS
		trS2.SeqTypes = seqP
		return c.Reward(trP) > c.Reward(trS2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRewardNonNegativeAndBounded(t *testing.T) {
	c := validConfig()
	r := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		k := 1 + int(uint(seed)%6)
		seq := make([]item.Type, k)
		for i := range seq {
			seq[i] = item.Type(r.Intn(2))
		}
		tr := Transition{
			SeqTypes:     seq,
			CoverageGain: r.Intn(3),
			PrereqOK:     r.Intn(2) == 0,
			ThemeOK:      r.Intn(2) == 0,
			Type:         item.Type(r.Intn(2)),
			Category:     item.NoCategory,
		}
		got := c.Reward(tr)
		// Bound: δ·k + β·max(w1,w2).
		ub := c.Delta*float64(k) + c.Beta*c.Weights.Primary
		return got >= 0 && got <= ub+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigs(t *testing.T) {
	it := example1Template()
	cc := DefaultCourseConfig(it)
	if err := cc.Validate(); err != nil {
		t.Fatalf("course defaults invalid: %v", err)
	}
	if cc.Delta != 0.8 || cc.Beta != 0.2 {
		t.Fatalf("course δ,β = %v,%v", cc.Delta, cc.Beta)
	}
	tc := DefaultTripConfig(it)
	if err := tc.Validate(); err != nil {
		t.Fatalf("trip defaults invalid: %v", err)
	}
	if tc.Delta != 0.6 || tc.Beta != 0.4 {
		t.Fatalf("trip δ,β = %v,%v", tc.Delta, tc.Beta)
	}
	if len(Univ2CategoryWeights()) != 6 {
		t.Fatal("Univ-2 weights should have 6 entries")
	}
}

func TestSoftGateVariant(t *testing.T) {
	c := validConfig()
	c.SoftGate = true
	seq := []item.Type{p, s, p, p} // AvgSim = 1
	valid := Transition{SeqTypes: seq, CoverageGain: 1, PrereqOK: true, ThemeOK: true, Type: item.Primary, Category: item.NoCategory}
	invalid := valid
	invalid.PrereqOK = false

	base := 0.6*1 + 0.4*0.6
	if got := c.Reward(valid); math.Abs(got-base) > 1e-12 {
		t.Fatalf("soft-gate valid reward = %v, want %v", got, base)
	}
	// An invalid action is penalized, not zeroed.
	want := base - SoftGatePenalty
	if got := c.Reward(invalid); math.Abs(got-want) > 1e-12 {
		t.Fatalf("soft-gate invalid reward = %v, want %v", got, want)
	}
	if c.Reward(invalid) >= c.Reward(valid) {
		t.Fatal("penalty did not order invalid below valid")
	}
}
