package sarsa_test

import (
	"context"
	"testing"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/qtable"
	"github.com/rlplanner/rlplanner/internal/sarsa"
)

// builtins returns the six built-in instances the property test sweeps.
func builtins() []*dataset.Instance {
	insts := univ.Univ1All()
	insts = append(insts, univ.Univ2DS())
	insts = append(insts, trip.Instances()...)
	return insts
}

func sameTables(a, b *qtable.Table) bool {
	if a.Size() != b.Size() {
		return false
	}
	for s := 0; s < a.Size(); s++ {
		for e := 0; e < a.Size(); e++ {
			if a.Get(s, e) != b.Get(s, e) {
				return false
			}
		}
	}
	return true
}

// TestParallelBitIdentical is the tentpole's determinism property: for
// every built-in instance, any Workers >= 1 must produce a Q table,
// learning curve and batch count bit-identical to Workers = 1.
func TestParallelBitIdentical(t *testing.T) {
	const episodes = 120
	for _, inst := range builtins() {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			learn := func(workers int) *sarsa.Result {
				t.Helper()
				c, err := core.Resolve(inst, core.Options{
					Episodes:     episodes,
					Seed:         7,
					TrainWorkers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				env, err := c.BuildEnv()
				if err != nil {
					t.Fatal(err)
				}
				res, err := sarsa.Learn(env, c.Sarsa)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			ref := learn(1)
			refCurve := ref.EpisodeReturns
			for _, w := range []int{2, 4, 7} {
				got := learn(w)
				gotCurve := got.EpisodeReturns
				if !sameTables(ref.Policy.Q, got.Policy.Q) {
					t.Errorf("workers=%d: Q table differs from workers=1", w)
				}
				if len(refCurve) != len(gotCurve) {
					t.Fatalf("workers=%d: curve length %d vs %d", w, len(gotCurve), len(refCurve))
				}
				for i := range refCurve {
					if refCurve[i] != gotCurve[i] {
						t.Errorf("workers=%d: episode %d return %v vs %v", w, i, gotCurve[i], refCurve[i])
						break
					}
				}
				if ref.MergeBatches != got.MergeBatches {
					t.Errorf("workers=%d: %d merge batches vs %d", w, got.MergeBatches, ref.MergeBatches)
				}
			}
			if ref.MergeBatches != (episodes+sarsa.MergeBatch-1)/sarsa.MergeBatch {
				t.Errorf("merge batches = %d, want ceil(%d/%d)", ref.MergeBatches, episodes, sarsa.MergeBatch)
			}
		})
	}
}

// TestParallelRaceHammer drives many concurrent walkers over one shared
// environment and table; `go test -race` does the actual checking.
func TestParallelRaceHammer(t *testing.T) {
	env := courseEnv(t)
	cfg := defaultConfig()
	cfg.Episodes = 400
	cfg.Start = sarsa.RandomStart
	cfg.Workers = 8
	res, err := sarsa.Learn(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpisodesCompleted() != cfg.Episodes {
		t.Fatalf("completed %d episodes, want %d", res.EpisodesCompleted(), cfg.Episodes)
	}
	if res.MergeBatches == 0 {
		t.Fatal("parallel run reported zero merge batches")
	}
}

// TestWarmStartInit: with a near-zero learning rate the learned table
// must stay at the warm-start values — proof the Init table actually
// seeds the run — and the Init table itself must never be mutated.
func TestWarmStartInit(t *testing.T) {
	env := courseEnv(t)
	init := qtable.New(env.NumItems())
	init.Fill(5.0)
	snapshot := init.Clone()

	for _, workers := range []int{0, 1, 4} {
		cfg := defaultConfig()
		cfg.Episodes = 10
		cfg.Alpha = 1e-12
		cfg.Workers = workers
		cfg.Init = init
		res, err := sarsa.Learn(env, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := res.Policy.Q.Get(0, 1)
		if got < 4.9 || got > 5.1 {
			t.Fatalf("workers=%d: Q(0,1) = %v, want ≈ 5.0 from warm start", workers, got)
		}
	}
	if !sameTables(init, snapshot) {
		t.Fatal("learner mutated the caller's Init table")
	}
}

func TestWarmStartSizeMismatch(t *testing.T) {
	env := courseEnv(t)
	cfg := defaultConfig()
	cfg.Init = qtable.New(env.NumItems() + 3)
	if _, err := sarsa.Learn(env, cfg); err == nil {
		t.Fatal("expected error for warm-start table of wrong size")
	}
}

// TestParallelOnEpisodeOrder: the merge must report episodes strictly in
// index order regardless of which worker walked them.
func TestParallelOnEpisodeOrder(t *testing.T) {
	env := courseEnv(t)
	cfg := defaultConfig()
	cfg.Episodes = 100
	cfg.Workers = 4
	var seen []int
	cfg.OnEpisode = func(i int) { seen = append(seen, i) }
	if _, err := sarsa.Learn(env, cfg); err != nil {
		t.Fatal(err)
	}
	if len(seen) != cfg.Episodes {
		t.Fatalf("observed %d episodes, want %d", len(seen), cfg.Episodes)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("episode order broken at position %d: got %d", i, v)
		}
	}
}

// TestParallelCheckpoint: a context cancelled after the first merged
// batch checkpoints at the batch boundary with Interrupted set.
func TestParallelCheckpoint(t *testing.T) {
	env := courseEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := defaultConfig()
	cfg.Episodes = 10 * sarsa.MergeBatch
	cfg.Workers = 4
	cfg.OnEpisode = func(i int) {
		if i == 0 {
			cancel()
		}
	}
	res, err := sarsa.LearnContext(ctx, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("expected Interrupted after mid-run cancellation")
	}
	if got := res.EpisodesCompleted(); got != sarsa.MergeBatch {
		t.Fatalf("checkpointed %d episodes, want one full batch (%d)", got, sarsa.MergeBatch)
	}
	if res.MergeBatches != 1 {
		t.Fatalf("merge batches = %d, want 1", res.MergeBatches)
	}

	// Already-dead context before any episode: an error, not a checkpoint.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := sarsa.LearnContext(dead, env, cfg); err == nil {
		t.Fatal("expected error for context dead before the first batch")
	}
}
