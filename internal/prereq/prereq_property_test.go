package prereq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randExpr builds a random expression over items "i0".."i9" with bounded
// depth.
func randExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Intn(3) == 0 {
		return Ref(fmt.Sprintf("i%d", r.Intn(10)))
	}
	n := 2 + r.Intn(2)
	kids := make([]Expr, n)
	for i := range kids {
		kids[i] = randExpr(r, depth-1)
	}
	if r.Intn(2) == 0 {
		return And(kids)
	}
	return Or(kids)
}

// randPositions places a random subset of items at random positions.
func randPositions(r *rand.Rand) map[string]int {
	pos := make(map[string]int)
	for i := 0; i < 10; i++ {
		if r.Intn(2) == 0 {
			pos[fmt.Sprintf("i%d", i)] = r.Intn(8)
		}
	}
	return pos
}

func TestPropertyGapMonotone(t *testing.T) {
	// Satisfaction is antitone in gap: if an expression holds at gap g,
	// it holds at every smaller gap.
	r := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randExpr(rr, 2)
		pos := randPositions(rr)
		at := 8 + rr.Intn(4)
		g := 1 + rr.Intn(5)
		if !satisfiedMap(e, at, pos, g) {
			return true // nothing to check
		}
		for smaller := g - 1; smaller >= 0; smaller-- {
			if !satisfiedMap(e, at, pos, smaller) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestPropertyPositionMonotone(t *testing.T) {
	// Satisfaction is monotone in the item's position: moving the item
	// later (with the same antecedent positions) cannot break it.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randExpr(rr, 2)
		pos := randPositions(rr)
		at := 8 + rr.Intn(4)
		g := 1 + rr.Intn(4)
		if !satisfiedMap(e, at, pos, g) {
			return true
		}
		return satisfiedMap(e, at+1, pos, g) && satisfiedMap(e, at+5, pos, g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyParseFormatFixpoint(t *testing.T) {
	// Format(Parse(Format(e))) == Format(e): rendering is a fixpoint.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randExpr(rr, 3)
		rendered := Format(e)
		parsed, err := Parse(rendered)
		if err != nil {
			return false
		}
		return Format(parsed) == rendered
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyParsedSemanticsMatch(t *testing.T) {
	// The reparsed expression evaluates identically to the original over
	// random position maps.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randExpr(rr, 3)
		parsed, err := Parse(Format(e))
		if err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			pos := randPositions(rr)
			at := rr.Intn(12)
			g := rr.Intn(5)
			if satisfiedMap(e, at, pos, g) != satisfiedMap(parsed, at, pos, g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAndImpliesOr(t *testing.T) {
	// And(kids) satisfied ⇒ Or(kids) satisfied (for non-empty kid sets).
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(3)
		kids := make([]Expr, n)
		for i := range kids {
			kids[i] = randExpr(rr, 1)
		}
		pos := randPositions(rr)
		at := 8 + rr.Intn(4)
		g := 1 + rr.Intn(3)
		if satisfiedMap(And(kids), at, pos, g) {
			return satisfiedMap(Or(kids), at, pos, g)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySatisfiedAfterMatchesMap(t *testing.T) {
	// SatisfiedAfter over a sequence equals the map form over each id's
	// last position in it, at the position after it, for sequences with
	// repeated ids and for the empty one, whether the sequence scans its
	// buffer, outgrows it midway or indexes from the start.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := randExpr(rr, 3)
		for trial := 0; trial < 5; trial++ {
			var buf [4]string
			scanned, indexed := PlacedIn(buf[:]), Placed{}
			pos := make(map[string]int)
			for p, n := 0, rr.Intn(12); p < n; p++ {
				id := fmt.Sprintf("i%d", rr.Intn(14))
				scanned, indexed = scanned.Add(id), indexed.Add(id)
				pos[id] = p
			}
			g := rr.Intn(5) - 1
			want := satisfiedMap(e, scanned.Len(), pos, g)
			if SatisfiedAfter(e, scanned, g) != want || SatisfiedAfter(e, indexed, g) != want {
				return false
			}
		}
		return SatisfiedAfter(nil, Placed{}, 1) && !SatisfiedAfter(Ref("i0"), Placed{}, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPlacedMatchesScan(t *testing.T) {
	// First, Last and Len agree with a scan of the ids placed, through
	// random Adds and Pops with repeated ids, for a sequence that scans a
	// buffer larger than it grows, one that outgrows its buffer and
	// indexes, and the zero Placed, which indexes from its first id.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		var small [3]string
		var big [64]string
		seqs := []Placed{PlacedIn(small[:]), PlacedIn(big[:]), {}}
		var ids []string
		for op := 0; op < 60; op++ {
			if len(ids) > 0 && rr.Intn(3) == 0 {
				ids = ids[:len(ids)-1]
				for i := range seqs {
					seqs[i] = seqs[i].Pop()
				}
			} else {
				id := fmt.Sprintf("i%d", rr.Intn(8))
				ids = append(ids, id)
				for i := range seqs {
					seqs[i] = seqs[i].Add(id)
				}
			}
			for _, s := range seqs {
				if s.Len() != len(ids) {
					return false
				}
				for k := 0; k < 9; k++ {
					id := fmt.Sprintf("i%d", k)
					first, last := slices.Index(ids, id), lastIndex(ids, id)
					f, fok := s.First(id)
					l, lok := s.Last(id)
					if fok != (first >= 0) || lok != (last >= 0) || (fok && f != first) || (lok && l != last) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
