package engine_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/transfer"
)

func TestDeriveWarmStartsFromSibling(t *testing.T) {
	ctx := context.Background()
	cs, dsct := univ.Univ1CS(), univ.Univ1DSCT()

	src, err := engine.Train(ctx, "sarsa", cs, core.Options{Episodes: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	pol, stats, err := engine.Derive(ctx, src, dsct, core.Options{Episodes: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ColdEpisodes != 150 {
		t.Fatalf("cold episodes = %d, want 150", stats.ColdEpisodes)
	}
	if stats.Distance <= 0 || stats.Distance >= 1 {
		t.Fatalf("distance = %v, want in (0,1)", stats.Distance)
	}
	if stats.WarmEpisodes >= stats.ColdEpisodes {
		t.Fatalf("warm budget %d did not shrink from cold %d", stats.WarmEpisodes, stats.ColdEpisodes)
	}
	if got := pol.Episodes(); got != stats.WarmEpisodes {
		t.Fatalf("policy episodes = %d, want %d", got, stats.WarmEpisodes)
	}
	from, dist := pol.WarmStart()
	if from != cs.Name || dist != stats.Distance {
		t.Fatalf("warm provenance = (%q, %v), want (%q, %v)", from, dist, cs.Name, stats.Distance)
	}
	if pol.Fingerprint() != engine.Fingerprint(dsct) {
		t.Fatal("derived policy fingerprint is not the target's")
	}
	seq, err := pol.Recommend(engine.DefaultStart)
	if err != nil || len(seq) == 0 {
		t.Fatalf("derived policy cannot recommend: %v (len %d)", err, len(seq))
	}

	// Provenance survives the artifact round-trip.
	var buf bytes.Buffer
	if err := pol.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := engine.Load(&buf, dsct, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Episodes(); got != stats.WarmEpisodes {
		t.Fatalf("loaded episodes = %d, want %d", got, stats.WarmEpisodes)
	}
	if from, dist := back.WarmStart(); from != cs.Name || dist != stats.Distance {
		t.Fatalf("loaded warm provenance = (%q, %v), want (%q, %v)", from, dist, cs.Name, stats.Distance)
	}
}

func TestDeriveRejectsProceduralSource(t *testing.T) {
	ctx := context.Background()
	inst := univ.Univ1CS()
	src, err := engine.Train(ctx, "eda", inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.Derive(ctx, src, univ.Univ1DSCT(), core.Options{}); err == nil {
		t.Fatal("expected error deriving from a procedural policy")
	}
}

// TestTransferMatchesCorePath: engine.Transfer serves, from every start
// and from the default one, exactly the plans of the reference path — the
// transfer-mapped Q table walked in an environment built from the
// target's resolved configuration — on the two §IV-D case studies, and
// returns the mapping it used. A procedural source and a nil target are
// refused.
func TestTransferMatchesCorePath(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		src, dst *dataset.Instance
	}{
		{"CS to DS-CT", univ.Univ1CS(), univ.Univ1DSCT()},
		{"NYC to Paris", trip.NYC().Instance, trip.Paris().Instance},
	} {
		src, err := engine.Train(ctx, "sarsa", tc.src, core.Options{Episodes: 150, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		opts := core.Options{Seed: 12}
		moved, movedMapping, err := engine.Transfer(src, tc.dst, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if moved.Engine() != "sarsa" || moved.Fingerprint() != engine.Fingerprint(tc.dst) {
			t.Fatalf("%s: transferred identity %s/%s", tc.name, moved.Engine(), moved.Fingerprint())
		}

		vp := src.(engine.ValuePolicy)
		mapped, mapping, err := transfer.Map(vp.Values(), vp.Env().Catalog(), tc.dst.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(movedMapping, mapping) {
			t.Fatalf("%s: Transfer returned mapping %+v, want %+v", tc.name, movedMapping, mapping)
		}
		ref, err := core.Resolve(tc.dst, opts)
		if err != nil {
			t.Fatal(err)
		}
		env, err := ref.BuildEnv()
		if err != nil {
			t.Fatal(err)
		}
		want, werr := mapped.RecommendGuided(env, ref.Sarsa.Start)
		got, gerr := moved.Recommend(engine.DefaultStart)
		if werr != nil || gerr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s default start: got %v (%v), want %v (%v)", tc.name, got, gerr, want, werr)
		}
		for start := 0; start < tc.dst.Catalog.Len(); start++ {
			want, werr := mapped.RecommendGuided(env, start)
			got, gerr := moved.Recommend(start)
			if (werr != nil) != (gerr != nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s start %d: got %v (%v), want %v (%v)", tc.name, start, got, gerr, want, werr)
			}
		}
	}

	gold, err := engine.Train(ctx, "gold", univ.Univ1CS(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.Transfer(gold, univ.Univ1DSCT(), core.Options{}); err == nil {
		t.Fatal("transfer from a procedural policy accepted")
	}
	src, err := engine.Train(ctx, "sarsa", univ.Univ1CS(), core.Options{Episodes: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.Transfer(src, nil, core.Options{}); err == nil {
		t.Fatal("transfer to a nil instance accepted")
	}
}

// TestPartialCheckpointRecordsEpisodes: a run interrupted at its
// deadline must carry how many episodes completed, and the count must
// survive save/load (the ISSUE 6 partial-metadata fix).
func TestPartialCheckpointRecordsEpisodes(t *testing.T) {
	inst := univ.Univ1CS()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const budget = 400
	pol, err := engine.Train(ctx, "sarsa", inst, core.Options{
		Episodes: budget,
		Seed:     1,
		OnEpisode: func(i int) {
			if i == 10 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Degradation() != engine.DegradedPartial {
		t.Fatalf("degradation = %q, want %q", pol.Degradation(), engine.DegradedPartial)
	}
	got := pol.Episodes()
	if got == 0 || got >= budget {
		t.Fatalf("partial policy episodes = %d, want in (0,%d)", got, budget)
	}

	var buf bytes.Buffer
	if err := pol.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := engine.Load(&buf, inst, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if back.Degradation() != engine.DegradedPartial {
		t.Fatal("degradation marker lost in artifact round-trip")
	}
	if back.Episodes() != got {
		t.Fatalf("loaded episodes = %d, want %d", back.Episodes(), got)
	}
}

func TestTrainStatsCounters(t *testing.T) {
	ctx := context.Background()
	before := engine.TrainStats()
	if _, err := engine.Train(ctx, "sarsa", univ.Univ1CS(), core.Options{
		Episodes: 64, Seed: 3, TrainWorkers: 2,
	}); err != nil {
		t.Fatal(err)
	}
	after := engine.TrainStats()
	if after.Runs != before.Runs+1 {
		t.Fatalf("runs %d -> %d, want +1", before.Runs, after.Runs)
	}
	if after.Episodes != before.Episodes+64 {
		t.Fatalf("episodes %d -> %d, want +64", before.Episodes, after.Episodes)
	}
	if after.MergeBatches != before.MergeBatches+2 {
		t.Fatalf("merge batches %d -> %d, want +2", before.MergeBatches, after.MergeBatches)
	}
	if after.WallNs <= before.WallNs {
		t.Fatal("training wall time did not advance")
	}
}
