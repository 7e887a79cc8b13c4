package eval

import (
	"fmt"
	"strings"

	"github.com/rlplanner/rlplanner/internal/bitset"
	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/prereq"
)

// StepExplanation itemizes why one plan position is (in)valid — the
// advisor-style justification an end user sees next to each recommended
// item.
type StepExplanation struct {
	// Pos is the 0-based plan position; ID the item.
	Pos int
	ID  string
	// Role is "primary" or "secondary".
	Role string
	// NewIdealTopics lists the ideal topics this step newly covers.
	NewIdealTopics []string
	// Prereq describes the antecedent status, e.g. "no prerequisites" or
	// "satisfied: [A OR B] via A at position 0 (gap 3)".
	Prereq string
	// PrereqOK reports whether the gap rule holds here.
	PrereqOK bool
	// ThemeOK reports the consecutive-theme rule (always true when the
	// instance has no theme-gap constraint).
	ThemeOK bool
}

// Explain walks a plan and justifies every step against the hard
// constraints it was planned under.
func Explain(inst *dataset.Instance, hard constraints.Hard, plan []int) []StepExplanation {
	c := inst.Catalog
	vocab := c.Vocabulary()
	covered := bitset.New(vocab.Len())
	var placed prereq.Placed
	out := make([]StepExplanation, 0, len(plan))

	for pos, idx := range plan {
		m := c.At(idx)
		gain := m.Topics.NewCoverage(covered, inst.Soft.Ideal)
		_ = gain
		newTopics := vocab.Decode(inst.Soft.Ideal.Intersect(m.Topics.Difference(covered)))

		ok := prereq.SatisfiedAfter(m.Prereq, placed, hard.Gap)
		var pr string
		switch {
		case m.Prereq == nil:
			pr = "no prerequisites"
		case ok:
			pr = fmt.Sprintf("satisfied: %s (gap %d)", describeRefs(m.Prereq, placed), hard.Gap)
		default:
			pr = fmt.Sprintf("VIOLATED: needs %s at least %d positions earlier",
				prereq.Format(m.Prereq), hard.Gap)
		}

		themeOK := true
		if hard.ThemeGap && pos > 0 {
			prev := c.At(plan[pos-1])
			if m.Category >= 0 && m.Category == prev.Category {
				themeOK = false
			}
		}

		out = append(out, StepExplanation{
			Pos:            pos,
			ID:             m.ID,
			Role:           m.Type.String(),
			NewIdealTopics: newTopics,
			Prereq:         pr,
			PrereqOK:       ok,
			ThemeOK:        themeOK,
		})
		covered.UnionInPlace(m.Topics)
		placed = placed.Add(m.ID)
	}
	return out
}

// describeRefs reports where the referenced antecedents sit in the plan.
func describeRefs(e prereq.Expr, placed prereq.Placed) string {
	var parts []string
	for _, ref := range prereq.ReferencedItems(e) {
		if p, ok := placed.Last(ref); ok {
			parts = append(parts, fmt.Sprintf("%s at position %d", ref, p))
		}
	}
	if len(parts) == 0 {
		return prereq.Format(e)
	}
	return prereq.Format(e) + " via " + strings.Join(parts, ", ")
}

// RenderExplanation formats step explanations as human-readable lines.
func RenderExplanation(steps []StepExplanation) []string {
	out := make([]string, 0, len(steps))
	for _, s := range steps {
		line := fmt.Sprintf("%2d. %-36s %-9s %s", s.Pos+1, s.ID, s.Role, s.Prereq)
		if !s.ThemeOK {
			line += " [theme repeat]"
		}
		if len(s.NewIdealTopics) > 0 {
			shown := s.NewIdealTopics
			if len(shown) > 4 {
				shown = append(append([]string{}, shown[:4]...), "…")
			}
			line += " — adds " + strings.Join(shown, ", ")
		} else {
			line += " — adds no new ideal topics"
		}
		out = append(out, line)
	}
	return out
}
