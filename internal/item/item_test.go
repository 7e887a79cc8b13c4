package item

import (
	"testing"

	"github.com/rlplanner/rlplanner/internal/bitset"
	"github.com/rlplanner/rlplanner/internal/prereq"
	"github.com/rlplanner/rlplanner/internal/topics"
)

// tableII builds the toy course catalog of Table II.
func tableII(t *testing.T) *Catalog {
	t.Helper()
	vocab := topics.MustVocabulary(
		"Algorithms", "Classification", "Clustering", "Statistics",
		"Regression", "Data Structure", "Neural Network", "Probability",
		"Data Visualization", "Linear System", "Matrix Decomposition",
		"Data Management", "Data Transfer",
	)
	items := []Item{
		{ID: "Data Structures and Algorithms", Type: Primary, Credits: 3,
			Topics: bitset.FromIndices(13, 0, 5), Category: NoCategory},
		{ID: "Data Mining", Type: Secondary, Credits: 3,
			Topics: bitset.FromIndices(13, 1, 2), Category: NoCategory},
		{ID: "Data Analytics", Type: Primary, Credits: 3,
			Topics: bitset.FromIndices(13, 3, 7), Category: NoCategory},
		{ID: "Linear Algebra", Type: Secondary, Credits: 3,
			Topics: bitset.FromIndices(13, 8, 9), Category: NoCategory},
		{ID: "Big Data", Type: Secondary, Credits: 3,
			Prereq: prereq.MustParse("Data Mining OR Data Analytics"),
			Topics: bitset.FromIndices(13, 0, 10, 11), Category: NoCategory},
		{ID: "Machine Learning", Type: Primary, Credits: 3,
			Prereq: prereq.MustParse("Linear Algebra AND Data Mining"),
			Topics: bitset.FromIndices(13, 1, 2, 4, 6), Category: NoCategory},
	}
	c, err := NewCatalog(vocab, items)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	return c
}

func TestCatalogBasics(t *testing.T) {
	c := tableII(t)
	if c.Len() != 6 {
		t.Fatalf("Len = %d, want 6", c.Len())
	}
	if c.NumPrimary() != 3 || c.NumSecondary() != 3 {
		t.Fatalf("split = %d/%d, want 3/3", c.NumPrimary(), c.NumSecondary())
	}
	m, ok := c.ByID("Machine Learning")
	if !ok || m.Type != Primary {
		t.Fatalf("ByID(Machine Learning) = %+v, %v", m, ok)
	}
	if i, ok := c.Index("Big Data"); !ok || i != 4 {
		t.Fatalf("Index(Big Data) = %d,%v", i, ok)
	}
	if _, ok := c.ByID("nope"); ok {
		t.Fatal("found nonexistent item")
	}
}

func TestCatalogValidation(t *testing.T) {
	vocab := topics.MustVocabulary("A", "B")
	cases := []struct {
		name  string
		items []Item
	}{
		{"empty id", []Item{{ID: "", Topics: bitset.New(2)}}},
		{"duplicate id", []Item{
			{ID: "x", Topics: bitset.New(2)},
			{ID: "x", Topics: bitset.New(2)},
		}},
		{"bad topic length", []Item{{ID: "x", Topics: bitset.New(3)}}},
		{"negative credits", []Item{{ID: "x", Credits: -1, Topics: bitset.New(2)}}},
		{"dangling prereq", []Item{
			{ID: "x", Topics: bitset.New(2), Prereq: prereq.Ref("ghost")},
		}},
	}
	for _, tc := range cases {
		if _, err := NewCatalog(vocab, tc.items); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if _, err := NewCatalog(nil, nil); err == nil {
		t.Error("nil vocabulary accepted")
	}
}

func TestSequenceHelpers(t *testing.T) {
	c := tableII(t)
	seq := []int{0, 1, 3} // DSA, DM, LA
	types := c.AppendTypes(nil, seq)
	if types[0] != Primary || types[1] != Secondary || types[2] != Secondary {
		t.Fatalf("types = %v", types)
	}
	ids := c.SequenceIDs(seq)
	if ids[1] != "Data Mining" {
		t.Fatalf("ids = %v", ids)
	}
	if got := c.TotalCredits(seq); got != 9 {
		t.Fatalf("TotalCredits = %v, want 9", got)
	}
}

func TestPrimariesSecondariesAreCopies(t *testing.T) {
	c := tableII(t)
	p := c.Primaries()
	p[0] = 999
	if c.Primaries()[0] == 999 {
		t.Fatal("Primaries leaked internal slice")
	}
	s := c.Secondaries()
	if len(s) != 3 {
		t.Fatalf("Secondaries = %v", s)
	}
}

func TestTypeString(t *testing.T) {
	if Primary.String() != "primary" || Secondary.String() != "secondary" {
		t.Fatal("Type.String mismatch")
	}
	if Type(9).String() != "Type(9)" {
		t.Fatalf("unknown type string = %s", Type(9))
	}
}

func TestCatalogIsDefensiveCopy(t *testing.T) {
	vocab := topics.MustVocabulary("A")
	items := []Item{{ID: "x", Topics: bitset.New(1)}}
	c := MustCatalog(vocab, items)
	items[0].ID = "mutated"
	if c.At(0).ID != "x" {
		t.Fatal("catalog shares caller's slice")
	}
}
