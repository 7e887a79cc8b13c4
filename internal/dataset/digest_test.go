package dataset_test

import (
	"reflect"
	"testing"

	"github.com/rlplanner/rlplanner/internal/bitset"
	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/prereq"
	"github.com/rlplanner/rlplanner/internal/topics"
)

// digestInstance builds a three-item instance; edit may change its
// items, vocabulary and instance fields before the catalog is built.
func digestInstance(t *testing.T, edit func(vocab **topics.Vocabulary, items []item.Item, in *dataset.Instance)) *dataset.Instance {
	t.Helper()
	vocab := topics.MustVocabulary("x", "y", "z")
	items := []item.Item{
		{ID: "a", Name: "A", Description: "first", Type: item.Primary, Credits: 3, Topics: vocab.MustVector("x"), Category: 1, Lat: 1, Lon: 2, Popularity: 3},
		{ID: "b", Name: "B", Type: item.Secondary, Credits: 3, Prereq: prereq.Ref("a"), Topics: vocab.MustVector("y", "z"), Category: item.NoCategory},
		{ID: "c", Name: "C", Type: item.Secondary, Credits: 3, Prereq: prereq.And{prereq.Ref("a"), prereq.Ref("b")}, Topics: vocab.MustVector("z")},
	}
	ideal := bitset.New(3)
	ideal.Set(0)
	ideal.Set(2)
	in := &dataset.Instance{
		Name: "digest", Kind: dataset.CoursePlanning,
		Hard:         constraints.Hard{Credits: 9, Primary: 1, Secondary: 2, Gap: 1},
		Soft:         constraints.Soft{Ideal: ideal, Template: dataset.MakeTemplate(1, 2)},
		DefaultStart: "a", GoldScore: 3,
	}
	if edit != nil {
		edit(&vocab, items, in)
	}
	c, err := item.NewCatalog(vocab, items)
	if err != nil {
		t.Fatal(err)
	}
	in.Catalog = c
	return in
}

// TestDigestCoversEveryItemField changes each field of item.Item in
// turn, by reflection, and the kind, vocabulary and P_soft, and requires
// a new digest for each; the name, P_hard, the defaults and the gold
// score, which the environment cache keys otherwise or not at all, must
// leave it unchanged. An item field of a new kind needs a case here.
func TestDigestCoversEveryItemField(t *testing.T) {
	base := digestInstance(t, nil).Digest()
	if again := digestInstance(t, nil).Digest(); again != base {
		t.Fatalf("equal instances digest %s and %s", base, again)
	}
	differs := func(what string, edit func(vocab **topics.Vocabulary, items []item.Item, in *dataset.Instance)) {
		t.Helper()
		if digestInstance(t, edit).Digest() == base {
			t.Errorf("changing %s left the digest unchanged", what)
		}
	}
	typ := reflect.TypeOf(item.Item{})
	for f := 0; f < typ.NumField(); f++ {
		field := typ.Field(f)
		differs("item field "+field.Name, func(vocab **topics.Vocabulary, items []item.Item, _ *dataset.Instance) {
			v := reflect.ValueOf(&items[2]).Elem().Field(f)
			switch x := v.Addr().Interface().(type) {
			case *string:
				*x += "'"
			case *item.Type:
				*x = item.Primary
			case *float64:
				*x += 0.5
			case *int:
				*x++
			case *prereq.Expr:
				*x = prereq.Or{prereq.Ref("a"), prereq.Ref("b")}
			case *bitset.Set:
				*x = (*vocab).MustVector("x", "z")
			default:
				t.Fatalf("no mutation for item field %s of type %s", field.Name, field.Type)
			}
		})
	}
	differs("the kind", func(_ **topics.Vocabulary, _ []item.Item, in *dataset.Instance) { in.Kind = dataset.TripPlanning })
	differs("a topic name", func(vocab **topics.Vocabulary, _ []item.Item, _ *dataset.Instance) {
		*vocab = topics.MustVocabulary("x", "y", "w")
	})
	differs("T_ideal", func(_ **topics.Vocabulary, _ []item.Item, in *dataset.Instance) { in.Soft.Ideal.Set(1) })
	differs("the template", func(_ **topics.Vocabulary, _ []item.Item, in *dataset.Instance) {
		in.Soft.Template = dataset.MakeTemplate(2, 1)
	})
	differs("the item order", func(_ **topics.Vocabulary, items []item.Item, _ *dataset.Instance) {
		items[1], items[2] = items[2], items[1]
	})
	if digestInstance(t, func(_ **topics.Vocabulary, _ []item.Item, in *dataset.Instance) {
		in.Name = "another"
		in.Hard.Gap = 2
		in.DefaultStart = "b"
		in.GoldScore = 1
		in.Defaults.Episodes = 7
	}).Digest() != base {
		t.Error("the name, P_hard, the default start, the defaults or the gold score changed the digest")
	}
}
