package prereq

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

// testIndex resolves the "i0".."i9" ids randExpr generates to indices 0..9.
func testIndex(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'i' {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 || n >= 10 {
		return 0, false
	}
	return n, true
}

// toArray converts a map position assignment to the index-aligned array
// form Program.Eval reads (-1 = absent).
func toArray(pos map[string]int) []int32 {
	arr := make([]int32, 10)
	for i := range arr {
		arr[i] = -1
	}
	for id, p := range pos {
		if i, ok := testIndex(id); ok {
			arr[i] = int32(p)
		}
	}
	return arr
}

func TestCompileEmpty(t *testing.T) {
	p, err := CompileExpr(nil, testIndex)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Trivial() || !p.Eval(5, toArray(nil), 3) {
		t.Fatal("nil expression must compile to the always-satisfied program")
	}
}

func TestCompileUnknownRef(t *testing.T) {
	if _, err := CompileExpr(Ref("nonexistent"), testIndex); err == nil {
		t.Fatal("expected error for unresolvable reference")
	}
}

func TestPropertyCompiledMatchesExpr(t *testing.T) {
	// The compiled postfix program evaluates identically to the
	// map-form reference over randomized AND/OR trees, positions,
	// gaps and placement positions — including gap 0 and deep nesting.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randExpr(rr, 3)
		p, err := CompileExpr(e, testIndex)
		if err != nil {
			return false
		}
		for trial := 0; trial < 8; trial++ {
			pos := randPositions(rr)
			arr := toArray(pos)
			at := rr.Intn(12)
			g := rr.Intn(5)
			if p.Eval(at, arr, g) != satisfiedMap(e, at, pos, g) {
				t.Logf("mismatch: %s at=%d gap=%d pos=%v", Format(e), at, g, pos)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompiledSetMatchesExpr(t *testing.T) {
	// Compile (the whole-catalog form) agrees with the per-expression
	// compiler, and the reverse dependency index is exactly the transpose
	// of the reference lists.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		exprs := make([]Expr, 10)
		for i := range exprs {
			if rr.Intn(3) == 0 {
				continue // nil: no prerequisite
			}
			exprs[i] = randExpr(rr, 2)
		}
		c, err := Compile(exprs, testIndex)
		if err != nil || c.Len() != len(exprs) {
			return false
		}
		// Evaluation equivalence.
		for trial := 0; trial < 5; trial++ {
			pos := randPositions(rr)
			arr := toArray(pos)
			at := rr.Intn(12)
			g := rr.Intn(4)
			for i, e := range exprs {
				if c.Eval(i, at, arr, g) != satisfiedMap(e, at, pos, g) {
					return false
				}
				if c.Trivial(i) != (e == nil) {
					return false
				}
			}
		}
		// Dependents(j) must contain i exactly when expr i references item j.
		refs := func(i, j int) bool {
			for _, id := range ReferencedItems(exprs[i]) {
				if k, ok := testIndex(id); ok && k == j {
					return true
				}
			}
			return false
		}
		for j := 0; j < 10; j++ {
			got := make(map[int]bool)
			for _, d := range c.Dependents(j) {
				if got[int(d)] {
					return false // duplicates
				}
				got[int(d)] = true
			}
			for i := 0; i < 10; i++ {
				if got[i] != refs(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCompiledDeepNesting(t *testing.T) {
	// A pathologically skewed tree exceeds the fixed evaluation stack and
	// must fall back to the spill stack, not misbehave.
	// Right-skewed nesting is the stack-hungry shape: each level holds one
	// value while the deeper subtree evaluates.
	var e Expr = Ref("i0")
	for d := 0; d < 100; d++ {
		e = And{Ref(fmt.Sprintf("i%d", d%10)), e}
	}
	p, err := CompileExpr(e, testIndex)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	arr := toArray(nil)
	for i := 0; i < 10; i++ {
		pos[fmt.Sprintf("i%d", i)] = i
		arr[i] = int32(i)
	}
	for _, g := range []int{0, 1, 3} {
		at := 15
		if p.Eval(at, arr, g) != satisfiedMap(e, at, pos, g) {
			t.Fatalf("deep tree mismatch at gap %d", g)
		}
	}
}
