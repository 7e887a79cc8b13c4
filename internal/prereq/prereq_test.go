package prereq

import (
	"strconv"
	"strings"
	"testing"
)

func TestNoneAlwaysSatisfied(t *testing.T) {
	if !Satisfied(nil, 0, nil, 3) {
		t.Fatal("nil expr should be satisfied")
	}
}

func TestRefGapSemantics(t *testing.T) {
	// Paper course example: gap = 3 enforces "a semester before" when 3
	// courses are taken per semester.
	positions := map[string]int{"Data Mining": 0}
	e := Ref("Data Mining")
	if e.SatisfiedAt(2, positions, 3) {
		t.Fatal("distance 2 should not satisfy gap 3")
	}
	if !e.SatisfiedAt(3, positions, 3) {
		t.Fatal("distance 3 should satisfy gap 3")
	}
	if e.SatisfiedAt(5, map[string]int{}, 1) {
		t.Fatal("missing antecedent should not satisfy")
	}
}

func TestOrSemantics(t *testing.T) {
	// m5 Big Data: [Data Mining OR Data Analytics] — any one suffices.
	e := MustParse("Data Mining OR Data Analytics")
	pos := map[string]int{"Data Analytics": 1}
	if !Satisfied(e, 4, pos, 3) {
		t.Fatal("OR with one satisfied branch should hold")
	}
	if Satisfied(e, 3, pos, 3) {
		t.Fatal("OR with insufficient gap should fail")
	}
	if Satisfied(e, 9, map[string]int{}, 1) {
		t.Fatal("OR with no antecedents taken should fail")
	}
}

func TestAndSemantics(t *testing.T) {
	// m6 Machine Learning: [Linear Algebra AND Data Mining] — all must hold.
	e := MustParse("Linear Algebra AND Data Mining")
	pos := map[string]int{"Linear Algebra": 0, "Data Mining": 1}
	if !Satisfied(e, 4, pos, 3) {
		t.Fatal("AND with both satisfied should hold")
	}
	if Satisfied(e, 3, pos, 3) {
		t.Fatal("AND where one branch misses the gap should fail")
	}
	if Satisfied(e, 4, map[string]int{"Linear Algebra": 0}, 3) {
		t.Fatal("AND with a missing antecedent should fail")
	}
}

func TestParseEmptyForms(t *testing.T) {
	for _, s := range []string{"", "[]", "  ", "[ ]"} {
		e, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if e != nil {
			t.Fatalf("Parse(%q) = %v, want nil", s, e)
		}
	}
}

func TestParseBracketedPaperNotation(t *testing.T) {
	e, err := Parse("[Data Mining OR Data Analytics]")
	if err != nil {
		t.Fatal(err)
	}
	o, ok := e.(Or)
	if !ok || len(o) != 2 {
		t.Fatalf("parsed %T %v", e, e)
	}
	if Format(e) != "[Data Mining OR Data Analytics]" {
		t.Fatalf("Format = %s", Format(e))
	}
}

func TestParseMultiWordNames(t *testing.T) {
	e := MustParse("Linear Algebra AND Data Mining")
	a, ok := e.(And)
	if !ok || len(a) != 2 {
		t.Fatalf("parsed %T %v", e, e)
	}
	if a[0].(Ref) != "Linear Algebra" || a[1].(Ref) != "Data Mining" {
		t.Fatalf("refs = %v", a)
	}
}

func TestParseParenthesized(t *testing.T) {
	e := MustParse("(CS 631 OR CS 634) AND MATH 661")
	a, ok := e.(And)
	if !ok || len(a) != 2 {
		t.Fatalf("parsed %T %v", e, e)
	}
	if _, ok := a[0].(Or); !ok {
		t.Fatalf("first term %T, want Or", a[0])
	}
	pos := map[string]int{"CS 634": 0, "MATH 661": 1}
	if !Satisfied(e, 4, pos, 3) {
		t.Fatal("expression should be satisfied")
	}
	if Satisfied(e, 4, map[string]int{"CS 631": 0}, 3) {
		t.Fatal("missing MATH 661 should fail")
	}
}

func TestParsePrecedenceAndBindsTighter(t *testing.T) {
	e := MustParse("A OR B AND C")
	o, ok := e.(Or)
	if !ok || len(o) != 2 {
		t.Fatalf("parsed %T %v", e, e)
	}
	if _, ok := o[1].(And); !ok {
		t.Fatalf("second term %T, want And", o[1])
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"AND", "A OR", "(A", "A)", "A AND (B OR", "( )"} {
		if _, err := Parse(s); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestReferencedItems(t *testing.T) {
	e := MustParse("(A OR B) AND C")
	got := ReferencedItems(e)
	if len(got) != 3 {
		t.Fatalf("ReferencedItems = %v", got)
	}
	if ReferencedItems(nil) != nil {
		t.Fatal("nil expr should have no items")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	for _, s := range []string{
		"[]",
		"[Data Mining]",
		"[Data Mining OR Data Analytics]",
		"[Linear Algebra AND Data Mining]",
		"[(A OR B) AND C]",
	} {
		e, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		e2, err := Parse(Format(e))
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", Format(e), err)
		}
		if Format(e) != Format(e2) {
			t.Fatalf("round trip %q → %q", Format(e), Format(e2))
		}
	}
}

func TestDeepNesting(t *testing.T) {
	e := MustParse("((A AND B) OR (C AND D)) AND E")
	pos := map[string]int{"C": 0, "D": 1, "E": 2}
	if !Satisfied(e, 5, pos, 3) {
		t.Fatal("nested expression should be satisfied via C AND D branch")
	}
	if Satisfied(e, 4, pos, 3) {
		t.Fatal("E at distance 2 should fail gap 3")
	}
}

func TestZeroGapMeansAnyEarlierPosition(t *testing.T) {
	e := Ref("X")
	if !e.SatisfiedAt(1, map[string]int{"X": 1}, 0) {
		t.Fatal("gap 0 should accept same position distance 0")
	}
}

// nested wraps "A" in d pairs of parentheses.
func nested(d int) string {
	return strings.Repeat("(", d) + "A" + strings.Repeat(")", d)
}

// TestParseBoundsNesting: the parser recurses once per "(", and a stack
// overflow is fatal, so nesting deeper than MaxDepth is refused with the
// depth in the error. MaxDepth itself still parses.
func TestParseBoundsNesting(t *testing.T) {
	if e, err := Parse(nested(MaxDepth)); err != nil || e != Ref("A") {
		t.Fatalf("Parse at depth %d = %v, %v; want A", MaxDepth, e, err)
	}
	for _, d := range []int{MaxDepth + 1, 10_000} {
		_, err := Parse(nested(d))
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(d)) {
			t.Errorf("Parse at depth %d: err = %v, want a refusal naming the depth", d, err)
		}
	}
}

// FuzzParse: prerequisite expressions arrive in uploaded catalogs
// (POST /api/instances). Whatever the input, Parse returns an error or
// an expression whose Format parses back to the same Format — unless
// Format's parentheses around each nested AND/OR take it past MaxDepth.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "[]", "Data Mining", "[Data Mining OR Data Analytics]",
		"Linear Algebra AND Data Mining", "(A OR B) AND C", "A OR B AND C",
		"((A))", "A)", "(A", "( )", nested(MaxDepth), nested(MaxDepth + 1), nested(10_000),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, err := Parse(s)
		if err != nil {
			return
		}
		_ = ReferencedItems(e)
		out := Format(e)
		again, err := Parse(out)
		if err != nil {
			if nesting(tokenize(out)) > MaxDepth {
				return
			}
			t.Fatalf("Parse(%q) = %q, which does not parse again: %v", s, out, err)
		}
		if Format(again) != out {
			t.Fatalf("Parse(%q) formats as %q, then as %q", s, out, Format(again))
		}
	})
}
