package qtable

// Reader is the read surface of an action-value table, the type the
// overlay API passes Q around as (NewOverlay's base, a policy's base
// reader). The guided walk resolves it to the concrete *Table or
// *Overlay before walking: a mask closure passed through an interface
// method escapes to the heap, one passed to a concrete method need not.
//
// All implementations agree exactly on semantics: absent entries read as
// 0, ArgMax breaks ties to the lowest index, and AppendArgMaxTies
// appends the maximal actions in ascending index order. The cross-
// implementation equivalence property test (reader_test.go) pins this.
//
// Readers are safe for concurrent use once their backing storage is
// frozen; Overlay additionally tolerates one concurrent writer per
// overlay (its own documented contract).
type Reader interface {
	// Size returns n, the number of items (states).
	Size() int
	// Get returns Q(s, e); 0 when never written.
	Get(s, e int) float64
	// ArgMax returns the allowed action maximizing Q(s, ·), ties to the
	// lowest index (allowed == nil admits every action). ok is false
	// when no action is allowed.
	ArgMax(s int, allowed func(e int) bool) (int, bool)
	// AppendArgMaxTies appends to buf every allowed action tied for the
	// maximal Q(s, ·), in ascending index order, and returns buf.
	AppendArgMaxTies(s int, allowed func(e int) bool, buf []int) []int
}

var (
	_ Reader = (*Table)(nil)
	_ Reader = (*Overlay)(nil)
)

// scanArgMax is the one allowed-scan arg-max every implementation
// shares: it scans e in [0, n) reading values through val, skipping
// actions the mask rejects, and returns the maximal action with ties
// resolved to the lowest index. The val closure never escapes, so
// callers can build it over a stack-local row view without allocating.
func scanArgMax(n int, val func(e int) float64, allowed func(e int) bool) (int, bool) {
	var best float64
	e, found := -1, false
	for a := 0; a < n; a++ {
		if allowed != nil && !allowed(a) {
			continue
		}
		if v := val(a); !found || v > best {
			best, e, found = v, a, true
		}
	}
	return e, found
}

// firstZeroArgMax is scanArgMax over a row whose positive cells the
// caller has shown the mask rejects, with no allowed NaN. The maximum is
// then 0 if any allowed cell holds 0, and its lowest index is the first
// allowed zero, where the scan returns. Positive cells are skipped
// without asking the mask again. Only when every allowed cell is
// negative does the scan reach n.
func firstZeroArgMax(n int, val func(e int) float64, allowed func(e int) bool) (int, bool) {
	var best float64
	e, found := -1, false
	for a := 0; a < n; a++ {
		v := val(a)
		if v > 0 || (allowed != nil && !allowed(a)) {
			continue
		}
		if v == 0 {
			return a, true
		}
		if !found || v > best {
			best, e, found = v, a, true
		}
	}
	return e, found
}

// scanAppendArgMaxTies is the shared allowed-scan tie collector: it
// appends every allowed action tied for the maximal value to buf in
// ascending index order. When a new maximum appears, the earlier ties
// are discarded in place, so the scan allocates only if buf must grow.
func scanAppendArgMaxTies(n int, val func(e int) float64, allowed func(e int) bool, buf []int) []int {
	var best float64
	found := false
	mark := len(buf)
	for a := 0; a < n; a++ {
		if allowed != nil && !allowed(a) {
			continue
		}
		v := val(a)
		switch {
		case !found || v > best:
			best, found = v, true
			buf = buf[:mark]
			buf = append(buf, a)
		case v == best:
			buf = append(buf, a)
		}
	}
	return buf
}
