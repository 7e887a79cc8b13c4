// Package constraints models the hard and soft constraints of the Task
// Planning Problem (§II-A.2, §II-A.3) and provides a plan validator that
// checks every hard constraint — the executable counterpart of Theorem 1.
//
// Hard constraints: P_hard = ⟨#cr, #primary, #secondary, gap⟩, extended for
// trip planning with the distance threshold d, the time threshold t (the
// trip instantiation of #cr) and the "no two consecutive POIs of the same
// theme" gap rule (§IV-A1).
//
// Soft constraints: P_soft = ⟨T_ideal, IT⟩ where IT is a set of ideal
// primary/secondary interleaving permutations (§II-A.3).
package constraints

import (
	"fmt"
	"strings"

	"github.com/rlplanner/rlplanner/internal/bitset"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/prereq"
)

// CreditMode says whether #cr is a floor (course credits: "at least 30
// credit hours") or a ceiling (trip visitation time: "must be completed in
// 6 hours").
type CreditMode uint8

const (
	// MinCredits requires the plan's total credits to reach #cr.
	MinCredits CreditMode = iota
	// MaxCredits requires the plan's total credits to stay within #cr.
	MaxCredits
)

// Hard is P_hard.
type Hard struct {
	// Credits is #cr: minimum credit hours (courses) or the visitation
	// time budget t in hours (trips), interpreted per CreditMode.
	Credits float64
	// CreditMode selects floor vs ceiling semantics for Credits.
	CreditMode CreditMode
	// Primary is #primary, the required number of primary items.
	Primary int
	// Secondary is #secondary, the required number of secondary items.
	Secondary int
	// Gap is the minimum sequence distance between an item and its
	// antecedents (gap in Eq. 4).
	Gap int
	// MaxDistanceKm is the trip distance threshold d; 0 disables the check.
	MaxDistanceKm float64
	// ThemeGap, when set, forbids two consecutive items of the same
	// Category (the trip-planning gap rule of §IV-A1).
	ThemeGap bool
}

// Length returns the target plan length #primary + #secondary.
func (h Hard) Length() int { return h.Primary + h.Secondary }

// String renders P_hard in the paper's quadruple notation.
func (h Hard) String() string {
	return fmt.Sprintf("⟨%g, %d, %d, %d⟩", h.Credits, h.Primary, h.Secondary, h.Gap)
}

// Template is IT: a set of permutations of primary/secondary types, each of
// length #primary + #secondary.
type Template [][]item.Type

// Validate checks that every permutation has exactly primary p's and
// secondary s's.
func (it Template) Validate(primary, secondary int) error {
	for i, perm := range it {
		var p, s int
		for _, t := range perm {
			if t == item.Primary {
				p++
			} else {
				s++
			}
		}
		if p != primary || s != secondary {
			return fmt.Errorf("constraints: permutation %d has %d primary / %d secondary, want %d/%d",
				i, p, s, primary, secondary)
		}
	}
	return nil
}

// ParseTemplate parses permutations written as in the paper, e.g.
// "primary, primary, secondary" (also accepting the shorthand "P"/"S").
func ParseTemplate(perms ...string) (Template, error) {
	out := make(Template, 0, len(perms))
	for _, perm := range perms {
		var seq []item.Type
		for _, tok := range strings.Split(perm, ",") {
			switch strings.ToLower(strings.TrimSpace(tok)) {
			case "primary", "p", "core":
				seq = append(seq, item.Primary)
			case "secondary", "s", "elective":
				seq = append(seq, item.Secondary)
			case "":
				// tolerate trailing commas
			default:
				return nil, fmt.Errorf("constraints: unknown template token %q", tok)
			}
		}
		out = append(out, seq)
	}
	return out, nil
}

// MustParseTemplate is ParseTemplate that panics on error.
func MustParseTemplate(perms ...string) Template {
	t, err := ParseTemplate(perms...)
	if err != nil {
		panic(err)
	}
	return t
}

// String renders the template in the paper's notation.
func (it Template) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, perm := range it {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('[')
		for j, t := range perm {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(t.String())
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.String()
}

// Soft is P_soft = ⟨T_ideal, IT⟩.
type Soft struct {
	// Ideal is T_ideal, the user's desired topic coverage vector.
	Ideal bitset.Set
	// Template is IT, the expert's ideal interleaving permutations.
	Template Template
}

// ViolationKind classifies a hard-constraint violation.
type ViolationKind uint8

const (
	// ViolationCredits: total credits below the floor / above the ceiling.
	ViolationCredits ViolationKind = iota
	// ViolationLength: plan length differs from #primary + #secondary.
	ViolationLength
	// ViolationSplit: fewer than #primary primary items (Case II of
	// Theorem 1's proof; the converse Case I is consistent).
	ViolationSplit
	// ViolationGap: an item's antecedent expression is unsatisfied at its
	// position for the required gap.
	ViolationGap
	// ViolationThemeGap: two consecutive items share a theme/category.
	ViolationThemeGap
	// ViolationDistance: total walking distance exceeds d.
	ViolationDistance
	// ViolationDuplicate: an item occurs more than once.
	ViolationDuplicate
)

func (k ViolationKind) String() string {
	switch k {
	case ViolationCredits:
		return "credits"
	case ViolationLength:
		return "length"
	case ViolationSplit:
		return "primary/secondary split"
	case ViolationGap:
		return "antecedent gap"
	case ViolationThemeGap:
		return "theme gap"
	case ViolationDistance:
		return "distance"
	case ViolationDuplicate:
		return "duplicate item"
	default:
		return fmt.Sprintf("ViolationKind(%d)", uint8(k))
	}
}

// Violation describes one failed hard constraint.
type Violation struct {
	Kind ViolationKind
	// Pos is the offending sequence position, or -1 for plan-level checks.
	Pos int
	// Detail is a human-readable explanation.
	Detail string
}

func (v Violation) String() string {
	if v.Pos >= 0 {
		return fmt.Sprintf("%s at position %d: %s", v.Kind, v.Pos, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Kind, v.Detail)
}

// PlanBuf is the plan length up to which Check and the plan scorers keep
// their per-position buffers on the stack: a longer plan spills them to
// the heap, and nothing else changes.
const PlanBuf = 32

// Check validates a plan (a sequence of catalog indices) against the hard
// constraints. It returns every violation found; an empty result means the
// plan satisfies P_hard.
//
// Its cost grows with the plan, not with the catalog: duplicates and
// antecedents are looked up in the plan's own ids (prereq.Placed, which
// scans a stack buffer up to PlanBuf ids and indexes longer plans), and
// on a plan that satisfies P_hard it allocates nothing.
func Check(c *item.Catalog, seq []int, h Hard) []Violation {
	var out []Violation

	// Duplicates invalidate positions-based checks, detect them first.
	// The same pass finds the antecedent gaps (Theorem 1, part 4 /
	// Eq. 4), which are reported after the split.
	var buf [PlanBuf]string
	placed := prereq.PlacedIn(buf[:])
	var gaps []Violation
	for pos, idx := range seq {
		m := c.At(idx)
		if first, dup := placed.First(m.ID); dup {
			out = append(out, Violation{
				Kind: ViolationDuplicate, Pos: pos,
				Detail: fmt.Sprintf("%s already at position %d", m.ID, first),
			})
		}
		if !prereq.SatisfiedAfter(m.Prereq, placed, h.Gap) {
			gaps = append(gaps, Violation{
				Kind: ViolationGap, Pos: pos,
				Detail: fmt.Sprintf("%s requires %s within gap %d", m.ID, prereq.Format(m.Prereq), h.Gap),
			})
		}
		placed = placed.Add(m.ID)
	}

	// (1) Credit constraint (Theorem 1, part 1).
	total := c.TotalCredits(seq)
	switch h.CreditMode {
	case MinCredits:
		if total < h.Credits {
			out = append(out, Violation{
				Kind: ViolationCredits, Pos: -1,
				Detail: fmt.Sprintf("total %g < required %g", total, h.Credits),
			})
		}
	case MaxCredits:
		if total > h.Credits {
			out = append(out, Violation{
				Kind: ViolationCredits, Pos: -1,
				Detail: fmt.Sprintf("total %g > budget %g", total, h.Credits),
			})
		}
	}

	// (2,3) Split (Theorem 1, parts 2–3). A primary counted as secondary is
	// fine (Case I), so the requirements are |S| = length target and at
	// least #primary primaries.
	if want := h.Length(); want > 0 && len(seq) != want {
		out = append(out, Violation{
			Kind: ViolationLength, Pos: -1,
			Detail: fmt.Sprintf("plan has %d items, want %d", len(seq), want),
		})
	}
	var primaries int
	for _, idx := range seq {
		if c.At(idx).Type == item.Primary {
			primaries++
		}
	}
	if primaries < h.Primary {
		out = append(out, Violation{
			Kind: ViolationSplit, Pos: -1,
			Detail: fmt.Sprintf("%d primary items, want at least %d", primaries, h.Primary),
		})
	}

	// (4) Antecedent gap (Theorem 1, part 4 / Eq. 4).
	out = append(out, gaps...)

	// Trip-specific: theme gap.
	if h.ThemeGap {
		for pos := 1; pos < len(seq); pos++ {
			prev, cur := c.At(seq[pos-1]), c.At(seq[pos])
			if cur.Category != item.NoCategory && cur.Category == prev.Category {
				out = append(out, Violation{
					Kind: ViolationThemeGap, Pos: pos,
					Detail: fmt.Sprintf("%s follows %s with the same theme", cur.ID, prev.ID),
				})
			}
		}
	}

	// Trip-specific: distance threshold d. The path is measured only when
	// it could exceed d.
	if h.MaxDistanceKm > 0 && pathCanExceed(len(seq), h.MaxDistanceKm) {
		var pb [PlanBuf]geo.Point
		pts := pb[:0]
		for _, idx := range seq {
			m := c.At(idx)
			pts = append(pts, geo.Point{Lat: m.Lat, Lon: m.Lon})
		}
		if d := geo.PathLength(pts); d > h.MaxDistanceKm {
			out = append(out, Violation{
				Kind: ViolationDistance, Pos: -1,
				Detail: fmt.Sprintf("path %.2f km exceeds threshold %g km", d, h.MaxDistanceKm),
			})
		}
	}

	return out
}

// pathCanExceed reports whether a path through n points can be longer
// than d: whether n−1 legs at Haversine's ceiling (geo.MaxHaversineKm),
// summed in path order, exceed d. When they do not, no path of n points
// does: every leg is at most the ceiling, and rounded addition is
// monotone, so each partial sum of geo.PathLength is at most the
// ceiling's partial sum at the same step.
func pathCanExceed(n int, d float64) bool {
	ceil, total := geo.MaxHaversineKm(), 0.0
	for i := 1; i < n; i++ {
		total += ceil
		if total > d {
			return true
		}
	}
	return false
}

// Satisfies reports whether the plan meets every hard constraint.
func Satisfies(c *item.Catalog, seq []int, h Hard) bool {
	return len(Check(c, seq, h)) == 0
}
