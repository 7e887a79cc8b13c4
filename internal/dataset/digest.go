package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"github.com/rlplanner/rlplanner/internal/bitset"
	"github.com/rlplanner/rlplanner/internal/prereq"
)

// Digest identifies the content an environment is built from: the kind,
// the topic vocabulary, every field of every catalog item (id, name,
// description, type, credits, prerequisite expression, topics,
// category, coordinates and popularity) and P_soft (T_ideal and the
// interleaving template). Instances with equal content have equal
// digests whatever their names; P_hard, the defaults and the gold score
// are left out because the environment cache's key carries the resolved
// constraints and reward configuration itself. The same digest is a
// policy's catalog fingerprint: a policy artifact records it and loads
// only onto an instance with an equal one. It is computed on first use
// and memoized on the instance.
func (in *Instance) Digest() string {
	in.digestOnce.Do(func() { in.digest = in.computeDigest() })
	return in.digest
}

func (in *Instance) computeDigest() string {
	// Fields are appended to b, which is hashed in large blocks: a hash
	// write per field costs more than the hashing.
	h := sha256.New()
	b := make([]byte, 0, 64<<10)
	flush := func() {
		h.Write(b)
		b = b[:0]
	}
	num := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	str := func(s string) {
		num(uint64(len(s)))
		b = append(b, s...)
	}
	float := func(f float64) { num(math.Float64bits(f)) }
	set := func(s bitset.Set) {
		idx := s.Indices()
		num(uint64(s.Len()))
		num(uint64(len(idx)))
		for _, i := range idx {
			num(uint64(i))
		}
	}
	// An expression is hashed by its structure: its rendering does not
	// tell an id containing " AND " from a conjunction.
	var expr func(e prereq.Expr)
	expr = func(e prereq.Expr) {
		switch e := e.(type) {
		case nil:
			num(0)
		case prereq.Ref:
			num(1)
			str(string(e))
		case prereq.And:
			num(2)
			num(uint64(len(e)))
			for _, x := range e {
				expr(x)
			}
		case prereq.Or:
			num(3)
			num(uint64(len(e)))
			for _, x := range e {
				expr(x)
			}
		default:
			num(4)
			str(e.String())
		}
	}

	num(uint64(in.Kind))
	c := in.Catalog
	vocab := c.Vocabulary()
	num(uint64(vocab.Len()))
	for i := 0; i < vocab.Len(); i++ {
		str(vocab.Name(i))
		if len(b) >= 32<<10 {
			flush()
		}
	}
	num(uint64(c.Len()))
	for i := 0; i < c.Len(); i++ {
		m := c.At(i)
		str(m.ID)
		str(m.Name)
		str(m.Description)
		num(uint64(m.Type))
		float(m.Credits)
		expr(m.Prereq)
		set(m.Topics)
		num(uint64(int64(m.Category)))
		float(m.Lat)
		float(m.Lon)
		float(m.Popularity)
		if len(b) >= 32<<10 {
			flush()
		}
	}
	set(in.Soft.Ideal)
	num(uint64(len(in.Soft.Template)))
	for _, perm := range in.Soft.Template {
		num(uint64(len(perm)))
		for _, t := range perm {
			num(uint64(t))
		}
	}
	flush()
	return hex.EncodeToString(h.Sum(nil)[:16])
}
