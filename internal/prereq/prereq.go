// Package prereq models antecedent/prerequisite requirements between items
// (pre^m in the paper). A requirement is an AND/OR expression over item
// identifiers; it is satisfied at a sequence position when the referenced
// items appear earlier in the sequence at a distance of at least gap
// (Equation 4: Dist(pre^m, m) ≥ gap). When prerequisites are "AND"ed every
// antecedent must satisfy the gap; when "OR"ed any one suffices (§III-B.2).
package prereq

import (
	"fmt"
	"strings"
)

// Expr is a prerequisite expression. The nil Expr (None) is always
// satisfied, matching items with pre^m = []. SatisfiedAfter evaluates it
// over a sequence of item ids; a catalog's compiled Program evaluates it
// over item indices.
type Expr interface {
	// Items appends the referenced item ids to dst and returns it.
	Items(dst []string) []string
	// String renders the expression in the paper's bracketed notation.
	String() string
}

// None is the empty prerequisite: always satisfied.
var None Expr

// Ref is a reference to a single antecedent item.
type Ref string

// Items implements Expr.
func (r Ref) Items(dst []string) []string { return append(dst, string(r)) }

func (r Ref) String() string { return string(r) }

// And requires every sub-expression to be satisfied.
type And []Expr

// Items implements Expr.
func (a And) Items(dst []string) []string {
	for _, e := range a {
		dst = e.Items(dst)
	}
	return dst
}

func (a And) String() string { return joinExprs(a, " AND ") }

// Or requires at least one sub-expression to be satisfied.
type Or []Expr

// Items implements Expr.
func (o Or) Items(dst []string) []string {
	for _, e := range o {
		dst = e.Items(dst)
	}
	return dst
}

func (o Or) String() string { return joinExprs(o, " OR ") }

func joinExprs(es []Expr, sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		if _, nested := e.(Ref); nested {
			parts[i] = e.String()
		} else {
			parts[i] = "(" + e.String() + ")"
		}
	}
	return strings.Join(parts, sep)
}

// SatisfiedAfter reports whether e holds for an item placed right after
// the sequence placed, at position placed.Len(): whether every AND
// branch, or some OR branch, names an id whose last position in placed
// is at least gap before it. This is r2 of Equation 4 expressed as a
// boolean; the nil Expr always holds.
func SatisfiedAfter(e Expr, placed Placed, gap int) bool {
	switch x := e.(type) {
	case Ref:
		p, ok := placed.Last(string(x))
		return ok && placed.Len()-p >= gap
	case And:
		for _, sub := range x {
			if !SatisfiedAfter(sub, placed, gap) {
				return false
			}
		}
		return true
	case Or:
		for _, sub := range x {
			if SatisfiedAfter(sub, placed, gap) {
				return true
			}
		}
		return len(x) == 0
	}
	return true // the nil Expr
}

// Placed is a sequence of item ids in placement order, as SatisfiedAfter
// and the plan checkers read it: where was an id first and last placed.
// While the ids fit the buffer the sequence started in (PlacedIn), a
// lookup scans them, so a short plan is checked without building
// anything; from the first id that does not fit, Placed also indexes
// them in a map, so a lookup stays O(1) and a sequence of any length is
// checked in O(length). The zero Placed indexes from its first id.
//
// Add and Pop return the changed sequence, as append does; the result
// replaces the receiver, which must not be used again.
type Placed struct {
	ids   []string
	index map[string]span // nil while ids fit their first buffer
}

// span is the first and last position of an id in a Placed.
type span struct{ first, last int }

// PlacedIn returns an empty sequence that keeps its ids in buf's backing
// array while they fit.
func PlacedIn(buf []string) Placed { return Placed{ids: buf[:0]} }

// Len is the number of ids placed.
func (p Placed) Len() int { return len(p.ids) }

// Add places id at position p.Len().
func (p Placed) Add(id string) Placed {
	if p.index == nil && len(p.ids) == cap(p.ids) {
		p.index = make(map[string]span, 2*len(p.ids)+1)
		for i, x := range p.ids {
			record(p.index, x, i)
		}
	}
	if p.index != nil {
		record(p.index, id, len(p.ids))
	}
	p.ids = append(p.ids, id)
	return p
}

// record notes id at position pos, the latest yet.
func record(index map[string]span, id string, pos int) {
	s, ok := index[id]
	if !ok {
		s.first = pos
	}
	s.last = pos
	index[id] = s
}

// Pop removes the id placed last.
func (p Placed) Pop() Placed {
	n := len(p.ids) - 1
	id := p.ids[n]
	p.ids = p.ids[:n]
	if p.index != nil {
		if s := p.index[id]; s.first == n {
			delete(p.index, id)
		} else {
			s.last = lastIndex(p.ids, id)
			p.index[id] = s
		}
	}
	return p
}

// First returns the position at which id was first placed.
func (p Placed) First(id string) (int, bool) {
	if p.index != nil {
		s, ok := p.index[id]
		return s.first, ok
	}
	for i, x := range p.ids {
		if x == id {
			return i, true
		}
	}
	return -1, false
}

// Last returns the position at which id was last placed.
func (p Placed) Last(id string) (int, bool) {
	if p.index != nil {
		s, ok := p.index[id]
		return s.last, ok
	}
	i := lastIndex(p.ids, id)
	return i, i >= 0
}

// lastIndex returns the last position of id in ids, or -1.
func lastIndex(ids []string, id string) int {
	for i := len(ids) - 1; i >= 0; i-- {
		if ids[i] == id {
			return i
		}
	}
	return -1
}

// ReferencedItems returns the ids referenced by e (nil-safe, may contain
// duplicates if the expression repeats an item).
func ReferencedItems(e Expr) []string {
	if e == nil {
		return nil
	}
	return e.Items(nil)
}

// Format renders e in the paper's bracketed list notation, e.g.
// "[Data Mining OR Data Analytics]"; nil renders as "[]".
func Format(e Expr) string {
	if e == nil {
		return "[]"
	}
	return "[" + e.String() + "]"
}

// Parse parses the paper's textual prerequisite notation:
//
//	""                                 → None (nil)
//	"[]"                               → None (nil)
//	"Data Mining OR Data Analytics"    → Or{Ref, Ref}
//	"Linear Algebra AND Data Mining"   → And{Ref, Ref}
//	"(A OR B) AND C"                   → And{Or{A,B}, C}
//
// AND binds tighter than OR, mirroring usual boolean convention, so
// "A OR B AND C" parses as Or{A, And{B, C}}. Mixed expressions should use
// parentheses for clarity; catalogs in this repository always do.
// Parentheses may nest at most MaxDepth deep.
func Parse(s string) (Expr, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimSuffix(s, "]")
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	toks := tokenize(s)
	if d := nesting(toks); d > MaxDepth {
		return nil, fmt.Errorf("prereq: parentheses nest %d deep, more than %d", d, MaxDepth)
	}
	p := &parser{toks: toks}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("prereq: trailing tokens at %q", strings.Join(p.toks[p.pos:], " "))
	}
	return e, nil
}

// MaxDepth bounds how deeply Parse lets parentheses nest. The parser
// recurses once per "(", and running out of stack is a fatal error that
// no recover can catch, so an uploaded catalog must not choose the depth.
// The built-in catalogs nest one level.
const MaxDepth = 32

// nesting returns the deepest parenthesis nesting in toks — an upper
// bound on the parser's recursion, which stops at the first unmatched
// ")".
func nesting(toks []string) int {
	depth, deepest := 0, 0
	for _, t := range toks {
		switch t {
		case "(":
			depth++
			deepest = max(deepest, depth)
		case ")":
			depth--
		}
	}
	return deepest
}

// MustParse is Parse that panics on error, for fixed catalog literals.
func MustParse(s string) Expr {
	e, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return e
}

// tokenize splits on whitespace but keeps parentheses as their own tokens
// and merges consecutive words into item names until a keyword/paren.
func tokenize(s string) []string {
	var toks []string
	var word strings.Builder
	flush := func() {
		if word.Len() > 0 {
			toks = append(toks, strings.TrimSpace(word.String()))
			word.Reset()
		}
	}
	fields := splitParens(s)
	for _, f := range fields {
		switch f {
		case "(", ")", "AND", "OR":
			flush()
			toks = append(toks, f)
		default:
			if word.Len() > 0 {
				word.WriteByte(' ')
			}
			word.WriteString(f)
		}
	}
	flush()
	return toks
}

// splitParens splits on whitespace, emitting parentheses as separate fields.
func splitParens(s string) []string {
	var out []string
	for _, f := range strings.Fields(s) {
		for {
			if strings.HasPrefix(f, "(") {
				out = append(out, "(")
				f = f[1:]
				continue
			}
			break
		}
		var trailing int
		for strings.HasSuffix(f, ")") {
			f = f[:len(f)-1]
			trailing++
		}
		if f != "" {
			out = append(out, f)
		}
		for ; trailing > 0; trailing-- {
			out = append(out, ")")
		}
	}
	return out
}

type parser struct {
	toks []string
	pos  int
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	terms := []Expr{left}
	for p.peek() == "OR" {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return Or(terms), nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	terms := []Expr{left}
	for p.peek() == "AND" {
		p.next()
		right, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return And(terms), nil
}

func (p *parser) parseAtom() (Expr, error) {
	switch t := p.peek(); t {
	case "":
		return nil, fmt.Errorf("prereq: unexpected end of expression")
	case "(":
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("prereq: missing closing parenthesis")
		}
		return e, nil
	case ")", "AND", "OR":
		return nil, fmt.Errorf("prereq: unexpected token %q", t)
	default:
		return Ref(p.next()), nil
	}
}
