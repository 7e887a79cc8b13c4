package prereq

import "fmt"

// This file provides the compiled form of prerequisite expressions: the
// AND/OR tree is flattened once (per catalog) into a postfix program over
// item *indices*, so the per-candidate hot path of the MDP evaluates
// prerequisites with array loads instead of interface dispatch and
// string-keyed map lookups. A Compiled set additionally carries the reverse
// dependency index (antecedent item → dependent items), which lets an
// episode maintain an incremental "prerequisites satisfied" cache: only the
// dependents of a newly gap-crossed antecedent can change status between
// steps.

// opcode discriminates the postfix instructions.
type opcode uint8

const (
	// opRef pushes whether the referenced item (arg = item index) is placed
	// early enough: positions[arg] >= 0 && pos - positions[arg] >= gap.
	opRef opcode = iota
	// opAnd pops arg values and pushes their conjunction (true when arg = 0).
	opAnd
	// opOr pops arg values and pushes their disjunction (true when arg = 0,
	// as SatisfiedAfter holds an empty Or).
	opOr
)

// instr is one postfix instruction.
type instr struct {
	arg int32
	op  opcode
}

// evalStackDepth is the fixed evaluation stack; programs needing more
// (absurdly nested expressions) evaluate through a heap-allocated spill
// stack, trading speed for correctness.
const evalStackDepth = 64

// Program is a compiled prerequisite expression. The zero Program (no
// instructions) is always satisfied, matching the nil Expr. Programs are
// immutable and safe for concurrent use.
type Program struct {
	code  []instr
	depth int // maximum evaluation stack depth
}

// CompileExpr flattens e into a postfix program, resolving item ids through
// index. It fails when a referenced id does not resolve — the same condition
// catalog validation rejects.
func CompileExpr(e Expr, index func(string) (int, bool)) (Program, error) {
	if e == nil {
		return Program{}, nil
	}
	var p Program
	depth, err := compileInto(e, index, &p)
	if err != nil {
		return Program{}, err
	}
	p.depth = depth
	return p, nil
}

// compileInto appends e's postfix code to p and returns the stack depth the
// appended code needs.
func compileInto(e Expr, index func(string) (int, bool), p *Program) (int, error) {
	switch x := e.(type) {
	case Ref:
		i, ok := index(string(x))
		if !ok {
			return 0, fmt.Errorf("prereq: compile: unknown item %q", string(x))
		}
		p.code = append(p.code, instr{arg: int32(i), op: opRef})
		return 1, nil
	case And:
		return compileNary(x, opAnd, index, p)
	case Or:
		return compileNary(x, opOr, index, p)
	case nil:
		// A nil element inside And/Or is always satisfied, like the nil Expr;
		// emit the empty conjunction.
		p.code = append(p.code, instr{arg: 0, op: opAnd})
		return 1, nil
	default:
		return 0, fmt.Errorf("prereq: compile: unsupported expression type %T", e)
	}
}

// compileNary compiles the children of an And/Or followed by the combining
// instruction. Child k sits on the stack while child k+1 evaluates, so the
// depth is max over children of (k + child depth), and at least 1 for the
// pushed result.
func compileNary(kids []Expr, op opcode, index func(string) (int, bool), p *Program) (int, error) {
	depth := 1
	for k, kid := range kids {
		d, err := compileInto(kid, index, p)
		if err != nil {
			return 0, err
		}
		if k+d > depth {
			depth = k + d
		}
	}
	p.code = append(p.code, instr{arg: int32(len(kids)), op: op})
	return depth, nil
}

// Trivial reports whether the program is empty, i.e. always satisfied.
func (p Program) Trivial() bool { return len(p.code) == 0 }

// Eval runs the program for an item placed at position pos. positions is the
// index-aligned placement array: positions[i] is the 0-based sequence
// position of item i, or negative when i is not placed. Eval allocates
// nothing for programs within evalStackDepth (every real catalog).
//
// Eval(pos, positions, gap) equals the source expression evaluated at pos
// over the map form of positions (id → position) — the reference the
// property tests hold Eval and SatisfiedAfter to.
func (p Program) Eval(pos int, positions []int32, gap int) bool {
	if len(p.code) == 0 {
		return true
	}
	var fixed [evalStackDepth]bool
	stack := fixed[:]
	if p.depth > evalStackDepth {
		stack = make([]bool, p.depth)
	}
	sp := 0
	for _, in := range p.code {
		switch in.op {
		case opRef:
			q := positions[in.arg]
			stack[sp] = q >= 0 && pos-int(q) >= gap
			sp++
		case opAnd:
			n := int(in.arg)
			v := true
			for i := sp - n; i < sp; i++ {
				v = v && stack[i]
			}
			sp -= n
			stack[sp] = v
			sp++
		case opOr:
			n := int(in.arg)
			v := n == 0
			for i := sp - n; i < sp; i++ {
				v = v || stack[i]
			}
			sp -= n
			stack[sp] = v
			sp++
		}
	}
	return stack[0]
}

// Compiled is the compiled prerequisite set of one catalog: one Program per
// item plus the reverse dependency index. Build it once per environment with
// Compile; it is immutable and shared by every episode.
type Compiled struct {
	progs      []Program
	dependents [][]int32
}

// Compile compiles every expression (index-aligned with a catalog) and
// builds the reverse dependency index: Dependents(j) lists the items whose
// prerequisite expression references item j.
func Compile(exprs []Expr, index func(string) (int, bool)) (*Compiled, error) {
	c := &Compiled{
		progs:      make([]Program, len(exprs)),
		dependents: make([][]int32, len(exprs)),
	}
	var refs []string
	for i, e := range exprs {
		p, err := CompileExpr(e, index)
		if err != nil {
			return nil, fmt.Errorf("prereq: item %d: %w", i, err)
		}
		c.progs[i] = p
		if e == nil {
			continue
		}
		seen := make(map[int]bool)
		refs = e.Items(refs[:0])
		for _, id := range refs {
			j, ok := index(id)
			if !ok {
				return nil, fmt.Errorf("prereq: item %d: unknown antecedent %q", i, id)
			}
			if !seen[j] {
				seen[j] = true
				c.dependents[j] = append(c.dependents[j], int32(i))
			}
		}
	}
	return c, nil
}

// Len returns the number of compiled programs.
func (c *Compiled) Len() int { return len(c.progs) }

// Trivial reports whether item i has no prerequisite.
func (c *Compiled) Trivial(i int) bool { return c.progs[i].Trivial() }

// Eval evaluates item i's program; see Program.Eval.
func (c *Compiled) Eval(i, pos int, positions []int32, gap int) bool {
	return c.progs[i].Eval(pos, positions, gap)
}

// Dependents returns the items whose prerequisites reference item i. The
// returned slice is owned by the Compiled set and must not be mutated.
func (c *Compiled) Dependents(i int) []int32 { return c.dependents[i] }
