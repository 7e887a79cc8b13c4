// Package qtable provides the |I|×|I| action-value table of §III-C.
// Q(s, e) estimates the value of taking action e (moving to item e) from
// state s (item s). The table supports masked arg-max queries (exclude
// already-chosen items) and deterministic tie-breaking hooks. The package
// has no serialized form of its own: a learned table leaves the process
// only inside the engine's policy artifact.
//
// A Table is backed by one of two representations behind one API. At or
// below the dense threshold it is the classic dense row-major float64
// array — O(1) loads, the layout every bench to date measures. Above the
// threshold New switches to sparse row storage (one open-addressed
// visited-cell table per state, see oaRow): SARSA touches a vanishing
// fraction of the n² pairs at catalog scale, so memory follows the
// visited set instead of 8n² bytes (80 GB at 100k items dense). The two
// representations are semantically identical — absent sparse cells read
// as 0, exactly like never-written dense cells — and the property tests
// pin Get/ArgMax/tie-order equivalence.
package qtable

import (
	"fmt"
	"math"
	"sort"
)

// DefaultDenseMaxItems is the catalog size up to which New allocates the
// dense n² array (128 MiB of float64 at 4096 items). Beyond it the
// sparse representation wins on memory by orders of magnitude.
// Callers with a configured threshold use NewWithDenseMax.
const DefaultDenseMaxItems = 4096

// Table is an action-value table over n items. The zero Table is not
// usable; construct with New or NewWithDenseMax.
//
// Concurrency: Table does no locking. Mutators (Set, Update, Fill,
// Merge) must not run concurrently with anything else, but once learning
// completes the table is effectively immutable and the read-only methods
// (Get, ArgMax, ArgMaxTies, Row, EachStored, MaxAbs) are safe to call
// from any number of goroutines — the experiment pool relies on this to
// share a learned policy across parallel evaluation runs.
type Table struct {
	n    int
	q    []float64 // dense row-major q[s*n+e]; nil for the sparse form
	rows []oaRow   // sparse per-state storage; nil for the dense form
}

// New returns an n×n table of zeros, dense up to DefaultDenseMaxItems
// and sparse beyond it.
func New(n int) *Table { return NewWithDenseMax(n, 0) }

// NewWithDenseMax is New with an explicit dense threshold (<= 0 means
// DefaultDenseMaxItems) — the constructor sarsa.Config.DenseQMax
// reaches.
func NewWithDenseMax(n, denseMax int) *Table {
	if n < 0 {
		panic(fmt.Sprintf("qtable: negative size %d", n))
	}
	if denseMax <= 0 {
		denseMax = DefaultDenseMaxItems
	}
	if n <= denseMax {
		return &Table{n: n, q: make([]float64, n*n)}
	}
	return &Table{n: n, rows: make([]oaRow, n)}
}

// IsDense reports whether the table uses the dense n² representation.
func (t *Table) IsDense() bool { return t.rows == nil }

// Stored returns the number of materialized cells: n² for the dense
// form, the visited-cell count for the sparse one.
func (t *Table) Stored() int {
	if t.IsDense() {
		return t.n * t.n
	}
	c := 0
	for i := range t.rows {
		c += t.rows[i].used
	}
	return c
}

// MemoryBytes estimates the resident bytes of the table's backing
// storage — the sparse form's figure follows the visited slots, not n².
func (t *Table) MemoryBytes() int {
	if t.IsDense() {
		return 8 * len(t.q)
	}
	b := 48 * len(t.rows) // row headers
	for i := range t.rows {
		b += 12 * len(t.rows[i].keys)
	}
	return b
}

// Size returns n, the number of items (states).
func (t *Table) Size() int { return t.n }

func (t *Table) check(s, e int) {
	if s < 0 || s >= t.n || e < 0 || e >= t.n {
		panic(fmt.Sprintf("qtable: index (%d,%d) out of range [0,%d)", s, e, t.n))
	}
}

// Get returns Q(s, e).
func (t *Table) Get(s, e int) float64 {
	t.check(s, e)
	if t.q != nil {
		return t.q[s*t.n+e]
	}
	return t.rows[s].get(int32(e))
}

// rowView returns Q(s, ·) as a view into the dense backing array,
// without copying and without bounds-checking s — the accessor the
// arg-max scans use on indices they already validated. It returns nil
// for a sparse-backed table; callers then read the state's oaRow.
// Callers must guarantee 0 <= s < n and must not mutate the returned
// slice.
func (t *Table) rowView(s int) []float64 {
	if t.q == nil {
		return nil
	}
	return t.q[s*t.n : (s+1)*t.n]
}

// Set assigns Q(s, e) = v. On the sparse form, writing 0 to an absent
// cell is a no-op (absent already reads 0); writing 0 over a stored cell
// keeps the slot and zeroes it, which is semantically identical.
func (t *Table) Set(s, e int, v float64) {
	t.check(s, e)
	if t.q != nil {
		t.q[s*t.n+e] = v
		return
	}
	r := &t.rows[s]
	if v == 0 && r.used == 0 {
		return
	}
	if v == 0 && r.get(int32(e)) == 0 {
		return
	}
	r.set(int32(e), v)
}

// Update applies the SARSA temporal-difference update of Equation 9:
//
//	Q(s,e) ← Q(s,e) + α[r + γ·Q(s',e') − Q(s,e)]
//
// and returns the new value. Each index pair is bounds-checked exactly
// once: the bootstrap value is read directly rather than through Get,
// which would re-check what Update already validated — this sits on the
// learning hot loop, one call per episode step.
func (t *Table) Update(s, e int, alpha, r, gamma float64, sNext, eNext int) float64 {
	t.check(s, e)
	target := r
	if sNext >= 0 && eNext >= 0 {
		t.check(sNext, eNext)
		if t.q != nil {
			target += gamma * t.q[sNext*t.n+eNext]
		} else {
			target += gamma * t.rows[sNext].get(int32(eNext))
		}
	}
	if t.q != nil {
		i := s*t.n + e
		t.q[i] += alpha * (target - t.q[i])
		return t.q[i]
	}
	row := &t.rows[s]
	v := row.get(int32(e))
	v += alpha * (target - v)
	if v == 0 && row.get(int32(e)) == 0 {
		return 0 // 0 → 0: no need to materialize the cell
	}
	row.set(int32(e), v)
	return v
}

// ArgMax returns the action e maximizing Q(s, e) among those allowed by
// the mask (allowed == nil means every action). Ties resolve to the lowest
// index for determinism; callers wanting random tie-breaks use ArgMaxTies.
// ok is false when no action is allowed.
//
// It asks the mask first only about the row's positive cells: the stored
// ones of a sparse row, a pass over the values of a dense one. The best
// allowed one of those is the answer. When none is allowed, no allowed
// value exceeds 0, so the first allowed cell holding 0 is the answer and
// the scan stops there (firstZeroArgMax); only a row whose every allowed
// cell is negative is scanned to the end. An allowed NaN sends the row
// to the plain masked scan, whose order it follows.
func (t *Table) ArgMax(s int, allowed func(e int) bool) (e int, ok bool) {
	if t.n == 0 {
		return -1, false
	}
	t.check(s, 0)
	best := 0.0
	e = -1
	if row := t.rowView(s); row != nil {
		for a, v := range row {
			if v <= 0 || (allowed != nil && !allowed(a)) {
				continue
			}
			if v != v {
				return scanArgMax(t.n, func(a int) float64 { return row[a] }, allowed)
			}
			if v > best {
				best, e = v, a
			}
		}
		if e >= 0 {
			return e, true
		}
		return firstZeroArgMax(t.n, func(a int) float64 { return row[a] }, allowed)
	}
	r := &t.rows[s]
	val := func(a int) float64 { return r.get(int32(a)) }
	for i, k := range r.keys {
		v := r.vals[i]
		if k < 0 || v <= 0 {
			continue
		}
		a := int(k)
		if allowed != nil && !allowed(a) {
			continue
		}
		if v != v {
			return scanArgMax(t.n, val, allowed)
		}
		if v > best || (v == best && a < e) {
			best, e = v, a
		}
	}
	if e >= 0 {
		return e, true
	}
	return firstZeroArgMax(t.n, val, allowed)
}

// ArgMaxTies returns every action tied for the maximum Q(s, e) among the
// allowed ones. The result is nil when no action is allowed.
func (t *Table) ArgMaxTies(s int, allowed func(e int) bool) []int {
	return t.AppendArgMaxTies(s, allowed, nil)
}

// AppendArgMaxTies appends to buf every allowed action tied for the
// maximal Q(s, ·), in ascending index order, and returns buf — the
// allocation-free form serving walks reuse a buffer through.
func (t *Table) AppendArgMaxTies(s int, allowed func(e int) bool, buf []int) []int {
	if t.n == 0 {
		return buf
	}
	t.check(s, 0)
	if row := t.rowView(s); row != nil {
		return scanAppendArgMaxTies(t.n, func(a int) float64 { return row[a] }, allowed, buf)
	}
	r := &t.rows[s]
	return scanAppendArgMaxTies(t.n, func(a int) float64 { return r.get(int32(a)) }, allowed, buf)
}

// Row returns a copy of Q(s, ·) as a dense slice.
func (t *Table) Row(s int) []float64 {
	t.check(s, 0)
	if t.q != nil {
		return append([]float64(nil), t.q[s*t.n:(s+1)*t.n]...)
	}
	out := make([]float64, t.n)
	r := &t.rows[s]
	for i, k := range r.keys {
		if k >= 0 {
			out[k] = r.vals[i]
		}
	}
	return out
}

// EachStored calls fn for every materialized non-zero cell in
// deterministic (s ascending, e ascending) order — the enumeration the
// persistence and transfer layers use so work scales with the visited
// set instead of n².
func (t *Table) EachStored(fn func(s, e int, v float64)) {
	if t.q != nil {
		for s := 0; s < t.n; s++ {
			row := t.q[s*t.n : (s+1)*t.n]
			for e, v := range row {
				if v != 0 {
					fn(s, e, v)
				}
			}
		}
		return
	}
	var es []int32
	for s := range t.rows {
		r := &t.rows[s]
		if r.used == 0 {
			continue
		}
		es = es[:0]
		for i, k := range r.keys {
			if k >= 0 && r.vals[i] != 0 {
				es = append(es, k)
			}
		}
		sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
		for _, e := range es {
			fn(s, int(e), r.get(e))
		}
	}
}

// Clone returns a deep copy of the table, preserving its representation.
func (t *Table) Clone() *Table {
	if t.q != nil {
		c := &Table{n: t.n, q: make([]float64, len(t.q))}
		copy(c.q, t.q)
		return c
	}
	c := &Table{n: t.n, rows: make([]oaRow, len(t.rows))}
	for i := range t.rows {
		c.rows[i] = t.rows[i].clone()
	}
	return c
}

// Fill sets every entry to v (useful for optimistic initialization).
// Filling a sparse-backed table with a non-zero value materializes the
// dense representation — optimistic initialization is inherently dense,
// and callers above the dense threshold should prefer zero init.
func (t *Table) Fill(v float64) {
	if t.q == nil {
		if v == 0 {
			for i := range t.rows {
				t.rows[i].reset()
			}
			return
		}
		t.q = make([]float64, t.n*t.n)
		t.rows = nil
	}
	for i := range t.q {
		t.q[i] = v
	}
}

// MaxAbs returns the largest |Q(s,e)| in the table; 0 for an empty table.
func (t *Table) MaxAbs() float64 {
	var m float64
	if t.q != nil {
		for _, v := range t.q {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		return m
	}
	for s := range t.rows {
		r := &t.rows[s]
		for i, k := range r.keys {
			if k < 0 {
				continue
			}
			if a := math.Abs(r.vals[i]); a > m {
				m = a
			}
		}
	}
	return m
}
