package qtable

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// DefaultTopK is the eager per-state prefix length Compile uses when
// k <= 0. Recommendation walks rarely skip more than a handful of
// infeasible actions per step, so a short prefix answers almost every
// arg-max without touching the lazy tail.
const DefaultTopK = 16

// Compiled is the serve-time form of an action-value table: for every
// state, the actions sorted by descending Q with ascending index as the
// tie-break — a total order, so the sorted permutation is unique and a
// masked arg-max can walk it and stop at the first allowed action
// instead of scanning all n values under the mask.
//
// Only the top-K prefix of each state's order is materialized at Compile
// time; the full tail is built lazily (and raced benignly: concurrent
// builders compute the identical permutation and one wins the atomic
// publish) the first time a walk exhausts the prefix. Compile reads the
// source table, so the table must already be frozen — the train-once /
// serve-many boundary the engine layer enforces.
type Compiled struct {
	n, k   int
	t      *Table
	prefix []int32 // n rows × k entries, row-major
	tails  []atomic.Pointer[[]int32]
}

// Compile builds the per-state Q-descending action order for a frozen
// dense table; sparse-backed tables are served by NewTiered instead. k
// bounds the eager prefix per state (DefaultTopK when k <= 0, clamped to
// the table size).
func Compile(t *Table, k int) *Compiled {
	if t == nil {
		panic("qtable: compile nil table")
	}
	if !t.IsDense() {
		panic("qtable: compile a sparse-backed table (serve it with NewTiered)")
	}
	n := t.Size()
	if k <= 0 {
		k = DefaultTopK
	}
	if k > n {
		k = n
	}
	c := &Compiled{n: n, k: k, t: t,
		prefix: make([]int32, n*k),
		tails:  make([]atomic.Pointer[[]int32], n),
	}
	for s := 0; s < n; s++ {
		c.fillPrefix(s, t.rowView(s))
	}
	return c
}

// better reports whether action a (value qa) precedes action b (value
// qb) in the compiled order: higher Q first, lower index on exact ties.
func better(a int32, qa float64, b int32, qb float64) bool {
	return qa > qb || (qa == qb && a < b)
}

// fillPrefix selects state s's top-k actions by insertion into the
// prefix row — O(n·k), no allocation beyond the prefix itself.
func (c *Compiled) fillPrefix(s int, row []float64) {
	pr := c.prefix[s*c.k : s*c.k : s*c.k+c.k]
	for a := 0; a < c.n; a++ {
		qa := row[a]
		if len(pr) == cap(pr) {
			last := pr[len(pr)-1]
			if !better(int32(a), qa, last, row[last]) {
				continue
			}
			pr = pr[:len(pr)-1]
		}
		i := len(pr)
		pr = append(pr, 0)
		for i > 0 && better(int32(a), qa, pr[i-1], row[pr[i-1]]) {
			pr[i] = pr[i-1]
			i--
		}
		pr[i] = int32(a)
	}
}

// fullRow returns state s's complete sorted action order, building and
// publishing it on first use. The comparator is a strict total order, so
// every builder produces the same permutation and fullRow[:k] equals the
// eager prefix — a walk can continue at the index where the prefix ran
// out.
func (c *Compiled) fullRow(s int) []int32 {
	if t := c.tails[s].Load(); t != nil {
		return *t
	}
	row := c.t.rowView(s)
	order := make([]int32, c.n)
	for a := range order {
		order[a] = int32(a)
	}
	sort.Slice(order, func(i, j int) bool {
		return better(order[i], row[order[i]], order[j], row[order[j]])
	})
	c.tails[s].Store(&order)
	return order
}

// Size returns n, the number of states.
func (c *Compiled) Size() int { return c.n }

// Get returns Q(s, e) from the source table the order was compiled
// from — Compiled adds ordering on top of the frozen values, so reads
// pass straight through and the type satisfies the full Reader surface.
func (c *Compiled) Get(s, e int) float64 {
	c.checkState(s)
	if e < 0 || e >= c.n {
		panic(fmt.Sprintf("qtable: action %d out of range [0,%d)", e, c.n))
	}
	return c.t.Get(s, e)
}

// K returns the eager prefix length.
func (c *Compiled) K() int { return c.k }

// AppendArgMaxTies appends to buf every allowed action tied for the
// maximal Q(s, ·), in ascending index order — the same result (and
// ordering) as Table.ArgMaxTies under the same mask, found by walking
// the compiled order instead of scanning all n values. allowed == nil
// admits every action. It falls back to the lazy full row only when the
// prefix is exhausted before the walk concludes (no allowed action seen
// yet, or a tie run reaching the prefix boundary).
func (c *Compiled) AppendArgMaxTies(s int, allowed func(e int) bool, buf []int) []int {
	c.checkState(s)
	qrow := c.t.rowView(s)
	row := c.prefix[s*c.k : (s+1)*c.k]
	inTail := false
	var best float64
	found := false
	for i := 0; ; i++ {
		if i == len(row) {
			if inTail || len(row) == c.n {
				break
			}
			row = c.fullRow(s)
			inTail = true
			if i == len(row) { // n == k == 0
				break
			}
		}
		a := int(row[i])
		v := qrow[a]
		if found && v < best {
			break
		}
		if allowed != nil && !allowed(a) {
			continue
		}
		if !found {
			best, found = v, true
		}
		buf = append(buf, a)
	}
	return buf
}

// ArgMax returns the allowed action maximizing Q(s, ·), ties to the
// lowest index — identical to Table.ArgMax under the same mask. ok is
// false when no action is allowed. Because the compiled order is total,
// the first allowed action in it IS the arg-max: no value is ever read.
func (c *Compiled) ArgMax(s int, allowed func(e int) bool) (int, bool) {
	c.checkState(s)
	row := c.prefix[s*c.k : (s+1)*c.k]
	for i := 0; ; i++ {
		if i == len(row) {
			if len(row) == c.n {
				return -1, false
			}
			row = c.fullRow(s)
			if i == len(row) {
				return -1, false
			}
		}
		a := int(row[i])
		if allowed == nil || allowed(a) {
			return a, true
		}
	}
}

func (c *Compiled) checkState(s int) {
	if s < 0 || s >= c.n {
		panic(fmt.Sprintf("qtable: state %d out of range [0,%d)", s, c.n))
	}
}
