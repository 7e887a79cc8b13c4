package qtable

import (
	"container/list"
	"fmt"
	"sort"
)

// DefaultOverlayCells bounds an Overlay's stored cells when the caller
// does not choose a cap. At ~16 payload bytes per cell this keeps one
// user's personalization under a few hundred KB even with map overhead.
const DefaultOverlayCells = 4096

// Per-cell and per-row resident cost estimates for SizeBytes: a stored
// cell is an int32 key + float64 value plus Go map bucket overhead; a
// row adds its map header and LRU element.
const (
	overlayCellBytes = 48
	overlayRowBytes  = 160
)

// Overlay is a copy-on-write sparse delta layered over an immutable
// shared base: reads consult the overlay first, then the base, then
// default to zero (the base's own absent-entry default). It is the unit
// of fleet-scale personalization — millions of users share one trained
// base table and each carries only a thin overlay of feedback-driven
// corrections, instead of a private |I|² copy.
//
// Memory is bounded: stored cells are capped (DefaultOverlayCells when
// unset) and crossing the cap evicts whole least-recently-touched rows,
// never the row being written. An empty overlay reads bit-identically
// to its base — the property the serving path relies on to keep
// non-personalized plans byte-for-byte unchanged.
//
// An Overlay is NOT safe for concurrent use: one overlay belongs to one
// user, and the per-user store serializes access with a per-entry lock.
// The base it wraps must be frozen (a Table after training), exactly
// as the serving layer already guarantees.
//
// The base is a concrete *Table, read through direct calls: a mask
// passed to ArgMax or AppendArgMaxTies reaches no interface call, so a
// caller holding the *Overlay keeps its mask closure on its stack.
type Overlay struct {
	base     *Table
	n        int
	maxCells int
	cells    int
	rows     map[int32]*list.Element
	order    *list.List // front = most recently touched
	evicted  uint64
}

// overlayRow is one shadowed state's delta cells.
type overlayRow struct {
	s     int32
	cells map[int32]float64
}

// NewOverlay returns an empty overlay over base, storing at most
// maxCells shadowed values (DefaultOverlayCells when maxCells <= 0).
// base must be a *Table, the trained table a policy serves; it panics
// on any other Reader, as on nil.
func NewOverlay(base Reader, maxCells int) *Overlay {
	if base == nil {
		panic("qtable: overlay over nil base")
	}
	t, ok := base.(*Table)
	if !ok || t == nil {
		panic(fmt.Sprintf("qtable: overlay over a %T, want a non-nil *Table", base))
	}
	if maxCells <= 0 {
		maxCells = DefaultOverlayCells
	}
	return &Overlay{
		base:     t,
		n:        t.Size(),
		maxCells: maxCells,
		rows:     make(map[int32]*list.Element),
		order:    list.New(),
	}
}

// Base returns the wrapped base reader.
func (o *Overlay) Base() Reader { return o.base }

// Size returns n, the number of items (states).
func (o *Overlay) Size() int { return o.n }

func (o *Overlay) check(s, e int) {
	if s < 0 || s >= o.n || e < 0 || e >= o.n {
		panic(fmt.Sprintf("qtable: index (%d,%d) out of range [0,%d)", s, e, o.n))
	}
}

// row returns state s's overlay row, nil when the state is unshadowed.
// touch moves the row to the recent end of the eviction order.
func (o *Overlay) row(s int, touch bool) *overlayRow {
	el, ok := o.rows[int32(s)]
	if !ok {
		return nil
	}
	if touch {
		o.order.MoveToFront(el)
	}
	return el.Value.(*overlayRow)
}

// Get returns Q(s, e): the overlay's shadow value when one is stored,
// the base value otherwise.
func (o *Overlay) Get(s, e int) float64 {
	o.check(s, e)
	if r := o.row(s, true); r != nil {
		if v, ok := r.cells[int32(e)]; ok {
			return v
		}
	}
	return o.base.Get(s, e)
}

// HasRow reports whether state s carries any overlay cells — whether
// its reads delegate to the base (unshadowed) or pay the masked merged
// scan (shadowed).
func (o *Overlay) HasRow(s int) bool {
	_, ok := o.rows[int32(s)]
	return ok
}

// Set shadows Q(s, e) = v, copying the cell into the overlay without
// touching the base (copy-on-write). Storing may evict older rows to
// respect the cell cap; the row being written is never evicted.
func (o *Overlay) Set(s, e int, v float64) {
	o.check(s, e)
	r := o.row(s, true)
	if r == nil {
		r = &overlayRow{s: int32(s), cells: make(map[int32]float64, 4)}
		o.rows[int32(s)] = o.order.PushFront(r)
	}
	if _, ok := r.cells[int32(e)]; !ok {
		o.cells++
	}
	r.cells[int32(e)] = v
	o.evict()
}

// Bump adds dv to Q(s, e), reading through the layered view first — the
// primitive feedback signals apply ("nudge this transition up/down").
func (o *Overlay) Bump(s, e int, dv float64) {
	o.Set(s, e, o.Get(s, e)+dv)
}

// evict drops least-recently-touched rows until the stored cells fit
// the cap again. The most recently touched row (the one a write just
// landed in) always survives, so a single row larger than the cap is
// allowed rather than thrashing.
func (o *Overlay) evict() {
	for o.cells > o.maxCells && o.order.Len() > 1 {
		el := o.order.Back()
		r := el.Value.(*overlayRow)
		o.order.Remove(el)
		delete(o.rows, r.s)
		o.cells -= len(r.cells)
		o.evicted++
	}
}

// ArgMax returns the allowed action maximizing the layered Q(s, ·),
// ties to the lowest index. Unshadowed rows delegate to the base
// unchanged, so a user with feedback on a handful of states still
// serves every other state at the base table's cost.
func (o *Overlay) ArgMax(s int, allowed func(e int) bool) (int, bool) {
	if o.n == 0 {
		return -1, false
	}
	o.check(s, 0)
	r := o.row(s, true)
	if r == nil {
		return o.base.ArgMax(s, allowed)
	}
	return scanArgMax(o.n, func(a int) float64 {
		if v, ok := r.cells[int32(a)]; ok {
			return v
		}
		return o.base.Get(s, a)
	}, allowed)
}

// AppendArgMaxTies appends every allowed action tied for the layered
// maximum in ascending index order — the same contract as every other
// Reader. Only shadowed rows pay the masked merged scan; the rest
// delegate to the base.
func (o *Overlay) AppendArgMaxTies(s int, allowed func(e int) bool, buf []int) []int {
	if o.n == 0 {
		return buf
	}
	o.check(s, 0)
	r := o.row(s, true)
	if r == nil {
		return o.base.AppendArgMaxTies(s, allowed, buf)
	}
	return scanAppendArgMaxTies(o.n, func(a int) float64 {
		if v, ok := r.cells[int32(a)]; ok {
			return v
		}
		return o.base.Get(s, a)
	}, allowed, buf)
}

// Cells returns the number of stored (shadowed) values.
func (o *Overlay) Cells() int { return o.cells }

// RowCount returns the number of shadowed states.
func (o *Overlay) RowCount() int { return o.order.Len() }

// Evictions returns how many rows the cell cap has evicted so far.
func (o *Overlay) Evictions() uint64 { return o.evicted }

// SizeBytes estimates the overlay's resident memory from its stored
// cells and rows — the figure the per-user store's byte budget and the
// overlay_bytes metric account with.
func (o *Overlay) SizeBytes() int {
	return o.cells*overlayCellBytes + o.order.Len()*overlayRowBytes
}

// Reset drops every shadowed cell, returning the overlay to
// reads-equal-base. Eviction counters survive (they are cumulative
// observability, not state).
func (o *Overlay) Reset() {
	o.rows = make(map[int32]*list.Element)
	o.order.Init()
	o.cells = 0
}

// ExportDelta records the overlay's shadowed cells as a Delta op-log in
// deterministic (state, action) order, with each op's target set to the
// absolute shadow value. Replaying it with Table.Merge(d, 1) onto a
// copy of the base reproduces the layered reads exactly — the
// densification/shipping form of a user's personalization.
func (o *Overlay) ExportDelta() *Delta {
	d := NewDelta(o.n)
	states := make([]int32, 0, len(o.rows))
	for s := range o.rows {
		states = append(states, s)
	}
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
	for _, s := range states {
		r := o.rows[s].Value.(*overlayRow)
		es := make([]int32, 0, len(r.cells))
		for e := range r.cells {
			es = append(es, e)
		}
		sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
		for _, e := range es {
			d.Record(int(s), int(e), r.cells[e])
		}
	}
	return d
}
