package qtable

// oaRow is one state's visited-cell storage in a sparse-backed Table: an
// open-addressed hash table from action index to Q value with linear
// probing. Compared with a Go map per row it has no per-entry
// allocation, no pointer chasing and deterministic growth — the per-step
// Update on the learning hot loop is one hash plus a short probe run.
//
// Slots hold keys (-1 = empty) and values in parallel arrays. Rows never
// delete: a value updated to exactly 0 keeps its slot (reads of 0 are
// indistinguishable from absence, which is all the semantics require),
// so no tombstone machinery is needed.
type oaRow struct {
	keys []int32
	vals []float64
	used int
}

// oaMinCap is the initial slot count of a row's first insert — small,
// because most visited rows hold only a handful of cells.
const oaMinCap = 8

// oaHash scatters an action index over the slot space (Fibonacci
// hashing; the slot count is a power of two).
func oaHash(e int32) uint32 { return uint32(e) * 2654435761 }

// get returns the stored value for action e, 0 when absent.
func (r *oaRow) get(e int32) float64 {
	if r.used == 0 {
		return 0
	}
	mask := uint32(len(r.keys) - 1)
	for i := oaHash(e) & mask; ; i = (i + 1) & mask {
		k := r.keys[i]
		if k == e {
			return r.vals[i]
		}
		if k < 0 {
			return 0
		}
	}
}

// set stores v for action e, growing the row at 3/4 load.
func (r *oaRow) set(e int32, v float64) {
	if len(r.keys) == 0 {
		r.grow(oaMinCap)
	} else if 4*(r.used+1) > 3*len(r.keys) {
		r.grow(2 * len(r.keys))
	}
	mask := uint32(len(r.keys) - 1)
	for i := oaHash(e) & mask; ; i = (i + 1) & mask {
		k := r.keys[i]
		if k == e {
			r.vals[i] = v
			return
		}
		if k < 0 {
			r.keys[i] = e
			r.vals[i] = v
			r.used++
			return
		}
	}
}

// grow rehashes the row into newCap slots.
func (r *oaRow) grow(newCap int) {
	oldKeys, oldVals := r.keys, r.vals
	r.keys = make([]int32, newCap)
	r.vals = make([]float64, newCap)
	for i := range r.keys {
		r.keys[i] = -1
	}
	r.used = 0
	for i, k := range oldKeys {
		if k >= 0 {
			r.set(k, oldVals[i])
		}
	}
}

// clone returns a deep copy of the row.
func (r *oaRow) clone() oaRow {
	c := oaRow{used: r.used}
	if r.keys != nil {
		c.keys = append([]int32(nil), r.keys...)
		c.vals = append([]float64(nil), r.vals...)
	}
	return c
}

// reset empties the row, keeping its slots for reuse.
func (r *oaRow) reset() {
	for i := range r.keys {
		r.keys[i] = -1
	}
	r.used = 0
}
