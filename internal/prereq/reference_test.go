package prereq

// satisfiedMap is the map form of the evaluators, the reference the tests
// hold SatisfiedAfter and Program.Eval to: e holds for an item at
// position pos when positions (item id → 0-based position) places every
// AND branch's antecedent, or some OR branch's, at least gap earlier.
// The nil Expr always holds.
func satisfiedMap(e Expr, pos int, positions map[string]int, gap int) bool {
	switch x := e.(type) {
	case Ref:
		p, ok := positions[string(x)]
		return ok && pos-p >= gap
	case And:
		for _, sub := range x {
			if !satisfiedMap(sub, pos, positions, gap) {
				return false
			}
		}
		return true
	case Or:
		for _, sub := range x {
			if satisfiedMap(sub, pos, positions, gap) {
				return true
			}
		}
		return len(x) == 0
	}
	return true
}
