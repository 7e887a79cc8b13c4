package rlplanner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
)

// catalog8kDigest is the SHA-256 of the 64 catalog-8k plans below (each
// plan's item ids joined by spaces, one plan per line), recorded before
// the guided walk's exact pruning of distance checks and its per-type
// similarity scoring. Those shortcuts must not change a single plan.
const catalog8kDigest = "218f7bc3be61ac7df2f30099eb8a508c05635deacec28d4a5bc09d7d635b9a1f"

// catalog8kValid is how many of those 64 plans satisfy P_hard. The rest
// start from an item whose own antecedents are unmet.
const catalog8kValid = 44

// TestCatalog8kPlansUnchanged replays the catalog-8k benchmark's quality
// set through the library: the 8192-item geo catalog round-tripped
// through its JSON spec, a 64-episode SARSA policy, and guided walks
// from the first 64 starts of the benchmark's seeded start order.
func TestCatalog8kPlansUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and walks an 8192-item catalog")
	}
	const items = 8192
	gen, err := GenerateInstance(GenParams{Name: "catalog-8k", Items: items, Geo: true, Seed: items})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gen.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	inst, err := LoadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := Train(context.Background(), inst, "sarsa", Options{Episodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	all := inst.Items()
	h := sha256.New()
	valid := 0
	for _, j := range rand.New(rand.NewSource(items)).Perm(items)[:64] {
		plan, err := pol.Recommend(all[j].ID)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(strings.Join(plan.IDs(), " ") + "\n"))
		if plan.SatisfiesConstraints {
			valid++
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != catalog8kDigest {
		t.Errorf("plan digest %s, want %s", got, catalog8kDigest)
	}
	if valid != catalog8kValid {
		t.Errorf("%d of 64 plans satisfy P_hard, want %d", valid, catalog8kValid)
	}
}
