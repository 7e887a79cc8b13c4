// Package item defines the item model of the paper (§II-A): an item is a
// quadruple ⟨type, cr, pre, T⟩ of primary/secondary type, a credit value, a
// prerequisite expression, and a topic coverage vector. A Catalog is the
// item set I with id and index lookup, shared immutably by learners,
// baselines and evaluators.
package item

import (
	"fmt"

	"github.com/rlplanner/rlplanner/internal/bitset"
	"github.com/rlplanner/rlplanner/internal/prereq"
	"github.com/rlplanner/rlplanner/internal/topics"
)

// Type distinguishes primary (required/core) from secondary
// (optional/elective) items.
type Type uint8

const (
	// Primary items are required for the task (core courses, must-visit POIs).
	Primary Type = iota
	// Secondary items are optional and chosen by user interest (electives,
	// optional POIs).
	Secondary
)

// String returns "primary" or "secondary", matching the paper's notation.
func (t Type) String() string {
	switch t {
	case Primary:
		return "primary"
	case Secondary:
		return "secondary"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// NoCategory marks an item that belongs to no sub-discipline/theme.
const NoCategory = -1

// Item is one plannable unit: a course or a POI.
type Item struct {
	// ID uniquely identifies the item within its catalog, e.g. "CS 675" or
	// "louvre museum".
	ID string
	// Name is the human-readable title, e.g. "Machine Learning".
	Name string
	// Description is the catalog blurb (course description / POI notes);
	// informational only — topics drive the planner.
	Description string
	// Type is primary (core / must-visit) or secondary (elective / optional).
	Type Type
	// Credits is cr^m: credit hours for courses, visitation hours for POIs.
	Credits float64
	// Prereq is pre^m, the antecedent expression (nil when none).
	Prereq prereq.Expr
	// Topics is T^m, the coverage vector over the catalog's vocabulary.
	Topics bitset.Set
	// Category is a domain-specific grouping index: the sub-discipline a–f
	// for Univ-2 courses, or the dominant theme for POIs (used by the
	// "no two consecutive POIs of the same theme" gap rule). NoCategory
	// when unused.
	Category int
	// Lat and Lon position POIs for the distance threshold d; zero for
	// courses.
	Lat, Lon float64
	// Popularity is the POI popularity score on a 1–5 scale derived from
	// itinerary frequency (trip score basis, §IV-A2); zero for courses.
	Popularity float64
}

// Catalog is an immutable, ordered item set with O(1) id lookup. Build one
// with NewCatalog; it validates prerequisite references and topic vector
// lengths so downstream code can assume internal consistency.
type Catalog struct {
	items []Item
	byID  map[string]int
	vocab *topics.Vocabulary

	primaries   []int
	secondaries []int
}

// NewCatalog validates and indexes items against vocab.
func NewCatalog(vocab *topics.Vocabulary, items []Item) (*Catalog, error) {
	if vocab == nil {
		return nil, fmt.Errorf("item: nil vocabulary")
	}
	c := &Catalog{
		items: make([]Item, len(items)),
		byID:  make(map[string]int, len(items)),
		vocab: vocab,
	}
	copy(c.items, items)
	for i, m := range c.items {
		if m.ID == "" {
			return nil, fmt.Errorf("item: empty id at position %d", i)
		}
		if _, dup := c.byID[m.ID]; dup {
			return nil, fmt.Errorf("item: duplicate id %q", m.ID)
		}
		if m.Topics.Len() != vocab.Len() {
			return nil, fmt.Errorf("item %q: topic vector length %d, vocabulary %d",
				m.ID, m.Topics.Len(), vocab.Len())
		}
		if m.Credits < 0 {
			return nil, fmt.Errorf("item %q: negative credits %v", m.ID, m.Credits)
		}
		c.byID[m.ID] = i
		// Topic vectors are read-only once the catalog is built, so store
		// each in its density-optimal representation: at catalog scale an
		// item covers a handful of a 100k-topic vocabulary, and the dense
		// vector (vocab/8 bytes per item) would dominate resident memory.
		c.items[i].Topics = m.Topics.Compact()
	}
	// Prerequisite references must resolve within the catalog.
	for _, m := range c.items {
		for _, ref := range prereq.ReferencedItems(m.Prereq) {
			if _, ok := c.byID[ref]; !ok {
				return nil, fmt.Errorf("item %q: prerequisite %q not in catalog", m.ID, ref)
			}
		}
	}
	for i, m := range c.items {
		if m.Type == Primary {
			c.primaries = append(c.primaries, i)
		} else {
			c.secondaries = append(c.secondaries, i)
		}
	}
	return c, nil
}

// MustCatalog is NewCatalog that panics on error, for fixed test fixtures.
func MustCatalog(vocab *topics.Vocabulary, items []Item) *Catalog {
	c, err := NewCatalog(vocab, items)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the number of items.
func (c *Catalog) Len() int { return len(c.items) }

// At returns the item at index i.
func (c *Catalog) At(i int) Item { return c.items[i] }

// Index returns the index of the item with the given id.
func (c *Catalog) Index(id string) (int, bool) {
	i, ok := c.byID[id]
	return i, ok
}

// ByID returns the item with the given id.
func (c *Catalog) ByID(id string) (Item, bool) {
	if i, ok := c.byID[id]; ok {
		return c.items[i], true
	}
	return Item{}, false
}

// Vocabulary returns the topic vocabulary the catalog's vectors index into.
func (c *Catalog) Vocabulary() *topics.Vocabulary { return c.vocab }

// Primaries returns the indices of primary items in catalog order.
func (c *Catalog) Primaries() []int { return append([]int(nil), c.primaries...) }

// Secondaries returns the indices of secondary items in catalog order.
func (c *Catalog) Secondaries() []int { return append([]int(nil), c.secondaries...) }

// NumPrimary returns the number of primary items.
func (c *Catalog) NumPrimary() int { return len(c.primaries) }

// NumSecondary returns the number of secondary items.
func (c *Catalog) NumSecondary() int { return len(c.secondaries) }

// Types returns the type of every item, index-aligned with the catalog.
func (c *Catalog) Types() []Type {
	out := make([]Type, len(c.items))
	for i, m := range c.items {
		out[i] = m.Type
	}
	return out
}

// IDs returns all item ids in catalog order.
func (c *Catalog) IDs() []string {
	out := make([]string, len(c.items))
	for i, m := range c.items {
		out[i] = m.ID
	}
	return out
}

// AppendTypes appends the types of a sequence of item indices to dst and
// returns it.
func (c *Catalog) AppendTypes(dst []Type, seq []int) []Type {
	for _, idx := range seq {
		dst = append(dst, c.items[idx].Type)
	}
	return dst
}

// SequenceIDs maps a sequence of item indices to their ids.
func (c *Catalog) SequenceIDs(seq []int) []string {
	out := make([]string, len(seq))
	for i, idx := range seq {
		out[i] = c.items[idx].ID
	}
	return out
}

// TotalCredits sums cr^m over a sequence of item indices.
func (c *Catalog) TotalCredits(seq []int) float64 {
	var t float64
	for _, idx := range seq {
		t += c.items[idx].Credits
	}
	return t
}
