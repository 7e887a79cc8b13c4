package rlplanner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/rlplanner/rlplanner/internal/engine"
)

// catalog8kDigest is the SHA-256 of the 64 catalog-8k plans below (each
// plan's item ids joined by spaces, one plan per line), recorded before
// the guided walk's exact pruning of distance checks and its per-type
// similarity scoring. Those shortcuts must not change a single plan.
const catalog8kDigest = "218f7bc3be61ac7df2f30099eb8a508c05635deacec28d4a5bc09d7d635b9a1f"

// catalog8kScoreDigest is the SHA-256 of the same 64 plans' scoring,
// one line per plan: the bits of Score and CoverageRatio, whether the
// plan satisfies P_hard, and its violation strings. It was recorded
// before scoring became O(plan) (eval.EvaluateWith), which must not
// change a bit of it either.
const catalog8kScoreDigest = "ff063464c8989e8f4c0672dcdd84fb060d5db38ca6f1801b4e125c5abdc046c3"

// catalog8kValid is how many of those 64 plans satisfy P_hard. The rest
// start from an item whose own antecedents are unmet.
const catalog8kValid = 44

// TestCatalog8kPlansUnchanged replays the catalog-8k benchmark's quality
// set through the library: the 8192-item geo catalog round-tripped
// through its JSON spec, a 64-episode SARSA policy, and guided walks
// from the first 64 starts of the benchmark's seeded start order. The
// policy's artifact, reloaded, must restore a sparse table and walk the
// same plans.
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
	if fp := inst.Fingerprint(); fp != gen.Fingerprint() || fp != inst.inner.Digest() {
		t.Fatalf("fingerprint %s after the JSON round trip, %s before, digest %s", fp, gen.Fingerprint(), inst.inner.Digest())
	}
	pol, err := Train(context.Background(), inst, "sarsa", Options{Episodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var art bytes.Buffer
	if err := pol.Save(&art); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPolicyArtifact(&art, inst, Options{Episodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if back.p.(engine.ValuePolicy).Values().Q.IsDense() {
		t.Fatal("the reloaded 8192-item table is dense")
	}
	for name, p := range map[string]*Policy{"trained": pol, "reloaded": back} {
		all := inst.Items()
		h, scores := sha256.New(), sha256.New()
		valid := 0
		for _, j := range rand.New(rand.NewSource(items)).Perm(items)[:64] {
			plan, err := p.Recommend(all[j].ID)
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(strings.Join(plan.IDs(), " ") + "\n"))
			fmt.Fprintf(scores, "%016x %016x %t %q\n", math.Float64bits(plan.Score),
				math.Float64bits(plan.CoverageRatio), plan.SatisfiesConstraints, plan.Violations)
			if plan.SatisfiesConstraints {
				valid++
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != catalog8kDigest {
			t.Errorf("%s: plan digest %s, want %s", name, got, catalog8kDigest)
		}
		if got := hex.EncodeToString(scores.Sum(nil)); got != catalog8kScoreDigest {
			t.Errorf("%s: score digest %s, want %s", name, got, catalog8kScoreDigest)
		}
		if valid != catalog8kValid {
			t.Errorf("%s: %d of 64 plans satisfy P_hard, want %d", name, valid, catalog8kValid)
		}
	}
	// A warm plan allocates its response and little else: the walk's
	// sequence, the Plan and its steps, with the walk's masks on the
	// stack and the scoring allocation-free.
	start := inst.Items()[0].ID
	if allocs := testing.AllocsPerRun(64, func() {
		if _, err := pol.Recommend(start); err != nil {
			t.Fatal(err)
		}
	}); allocs > 8 {
		t.Errorf("Policy.Recommend allocates %v objects per plan, want at most 8", allocs)
	}
}
