package qtable

import (
	"fmt"
	"sort"
)

// Tiered is the serve-time Reader of a sparse-backed table — Compiled's
// role at catalog scale, built in O(stored · log) instead of Compile's
// O(n²k) scan. The dense total order (q-descending, index-ascending)
// decomposes into three tiers around zero:
//
//  1. the stored positive cells, eagerly sorted per row — the top-K
//     prefix generalized: its first entries are exactly what Compile
//     would materialize, and a masked arg-max usually stops here;
//  2. the zero class — every absent cell plus stored exact zeros, tied
//     at 0, ascending index — represented implicitly: a Bloom filter
//     over the stored non-zero cells answers "definitely absent" without
//     probing the row;
//  3. the stored negative cells, sorted, walked only when the mask
//     rejects every positive and every zero-class action.
//
// Walking tier 1, then 2, then 3 reproduces the dense order exactly, so
// Tiered satisfies the Reader contract bit for bit (the 7-way
// equivalence property test pins it). Memory follows the stored cells:
// order+values (12 bytes each) plus ~10 bloom bits, never n².
//
// Tiered reads the source table at build time and Get time; the table
// must already be frozen — the train-once / serve-many boundary the
// engine layer enforces.
type Tiered struct {
	n      int
	t      *Table
	offs   []int32   // n+1 row offsets into order/qvals
	order  []int32   // stored non-zero actions, q-desc / idx-asc per row
	qvals  []float64 // aligned with order
	posLen []int32   // per-row count of positive entries (tier-1 length)
	filter *bloom
}

// NewTiered builds the tiered reader for a frozen table. It accepts
// either representation — over a dense table the stored cells are its
// non-zeros, and the equivalence holds identically — but its reason to
// exist is the sparse form, where Policy.Compiled selects it instead of
// the quadratic Compile.
func NewTiered(t *Table) *Tiered {
	if t == nil {
		panic("qtable: tiered over nil table")
	}
	n := t.Size()
	stored := 0
	t.EachStored(func(int, int, float64) { stored++ })
	tr := &Tiered{
		n:      n,
		t:      t,
		offs:   make([]int32, n+1),
		order:  make([]int32, 0, stored),
		qvals:  make([]float64, 0, stored),
		posLen: make([]int32, n),
		filter: newBloom(stored),
	}
	// EachStored yields (s ascending, e ascending): rows arrive contiguous
	// and in index order, so each row is collected then sorted in place.
	row := -1
	for s := 0; s <= n; s++ {
		tr.offs[s] = int32(len(tr.order))
	}
	t.EachStored(func(s, e int, v float64) {
		if s != row {
			if row >= 0 {
				tr.finishRow(row)
			}
			row = s
		}
		tr.order = append(tr.order, int32(e))
		tr.qvals = append(tr.qvals, v)
		tr.filter.add(uint64(s)*uint64(n) + uint64(e))
	})
	if row >= 0 {
		tr.finishRow(row)
	}
	return tr
}

// finishRow sorts the just-collected row s (the entries from the
// running offset to the end of order) into q-desc/idx-asc order, counts
// its positives, and closes the offsets through s.
func (tr *Tiered) finishRow(s int) {
	lo := int(tr.offs[s])
	hi := len(tr.order)
	ord, val := tr.order[lo:hi], tr.qvals[lo:hi]
	sort.Sort(&rowSorter{ord: ord, val: val})
	pos := 0
	for pos < len(val) && val[pos] > 0 {
		pos++
	}
	tr.posLen[s] = int32(pos)
	for i := s + 1; i <= tr.n; i++ {
		tr.offs[i] = int32(hi)
	}
}

// rowSorter sorts one row's (action, value) pairs by the dense total
// order: higher Q first, lower index on exact ties.
type rowSorter struct {
	ord []int32
	val []float64
}

func (r *rowSorter) Len() int { return len(r.ord) }
func (r *rowSorter) Less(i, j int) bool {
	return better(r.ord[i], r.val[i], r.ord[j], r.val[j])
}
func (r *rowSorter) Swap(i, j int) {
	r.ord[i], r.ord[j] = r.ord[j], r.ord[i]
	r.val[i], r.val[j] = r.val[j], r.val[i]
}

// Size returns n, the number of states.
func (tr *Tiered) Size() int { return tr.n }

func (tr *Tiered) checkState(s int) {
	if s < 0 || s >= tr.n {
		panic(fmt.Sprintf("qtable: state %d out of range [0,%d)", s, tr.n))
	}
}

// Get returns Q(s, e); the Bloom filter short-circuits definite absents
// before the row probe.
func (tr *Tiered) Get(s, e int) float64 {
	tr.checkState(s)
	if e < 0 || e >= tr.n {
		panic(fmt.Sprintf("qtable: action %d out of range [0,%d)", e, tr.n))
	}
	if !tr.filter.mayContain(uint64(s)*uint64(tr.n) + uint64(e)) {
		return 0
	}
	return tr.t.Get(s, e)
}

// zeroClass reports whether action a reads as 0 in state s (absent, or
// stored exactly 0) — tier 2 membership. The Bloom "definitely absent"
// answer avoids the row probe for almost every unvisited cell.
func (tr *Tiered) zeroClass(s, a int) bool {
	if !tr.filter.mayContain(uint64(s)*uint64(tr.n) + uint64(a)) {
		return true
	}
	return tr.t.Get(s, a) == 0
}

// ArgMax returns the allowed action maximizing Q(s, ·), ties to the
// lowest index — identical to Table.ArgMax under the same mask. The
// three tiers are walked in order; because each tier's internal order
// matches the dense total order and every tier-1 value beats every
// tier-2 value beats every tier-3 value, the first allowed action found
// is the arg-max.
func (tr *Tiered) ArgMax(s int, allowed func(e int) bool) (int, bool) {
	if tr.n == 0 {
		return -1, false
	}
	tr.checkState(s)
	row := tr.order[tr.offs[s]:tr.offs[s+1]]
	p := int(tr.posLen[s])
	for _, a32 := range row[:p] {
		a := int(a32)
		if allowed == nil || allowed(a) {
			return a, true
		}
	}
	for a := 0; a < tr.n; a++ {
		if (allowed == nil || allowed(a)) && tr.zeroClass(s, a) {
			return a, true
		}
	}
	for _, a32 := range row[p:] {
		a := int(a32)
		if allowed == nil || allowed(a) {
			return a, true
		}
	}
	return -1, false
}

// AppendArgMaxTies appends to buf every allowed action tied for the
// maximal Q(s, ·), in ascending index order — the same result (and
// ordering) as the dense scan under the same mask. The first tier with
// any allowed action supplies the maximum; ties never span tiers.
func (tr *Tiered) AppendArgMaxTies(s int, allowed func(e int) bool, buf []int) []int {
	if tr.n == 0 {
		return buf
	}
	tr.checkState(s)
	lo, hi := int(tr.offs[s]), int(tr.offs[s+1])
	p := lo + int(tr.posLen[s])

	var found bool
	if buf, found = tr.collectTies(lo, p, allowed, buf); found {
		return buf
	}
	for a := 0; a < tr.n; a++ {
		if (allowed == nil || allowed(a)) && tr.zeroClass(s, a) {
			buf = append(buf, a)
			found = true
		}
	}
	if found {
		return buf
	}
	buf, _ = tr.collectTies(p, hi, allowed, buf)
	return buf
}

// collectTies appends the leading allowed tie run of the stored entries
// in [from, to) — already sorted q-desc/idx-asc — to buf. found reports
// whether any allowed entry existed; the run holds the segment's
// allowed maximum, and because entries are value-sorted the run is also
// index-ascending.
func (tr *Tiered) collectTies(from, to int, allowed func(e int) bool, buf []int) ([]int, bool) {
	var best float64
	found := false
	for i := from; i < to; i++ {
		v := tr.qvals[i]
		if found && v < best {
			break
		}
		a := int(tr.order[i])
		if allowed != nil && !allowed(a) {
			continue
		}
		if !found {
			best, found = v, true
		}
		buf = append(buf, a)
	}
	return buf, found
}

// MemoryBytes estimates the reader's own resident bytes (order, values,
// offsets and the Bloom filter; the source table accounts separately).
func (tr *Tiered) MemoryBytes() int {
	return 12*len(tr.order) + 4*len(tr.offs) + 4*len(tr.posLen) + tr.filter.sizeBytes()
}
