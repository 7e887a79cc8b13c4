// Batch-synchronous parallel SARSA (DESIGN §12). The episode budget is
// cut into fixed batches of MergeBatch episodes. Within a batch, up to
// Config.Workers goroutines claim episode indices from an atomic
// counter and walk them concurrently against the shared Q table, which
// is read-only for the duration of the batch; every step's TD target is
// evaluated against that frozen view and recorded into the episode's
// own qtable.Delta. At the batch barrier a single goroutine merges the
// deltas in episode-index order.
//
// Determinism argument (the same contract as the PR 1 experiments
// pool): an episode's trajectory and recorded targets depend only on
// (a) its index — every episode derives its rng from episodeSeed(seed,
// index), never from a shared stream — and (b) the frozen Q table,
// which is a pure function of the merges of earlier batches. The merge
// itself is single-threaded and ordered by episode index. No quantity
// anywhere depends on which worker ran which episode or in what order,
// so any Workers >= 1 produces bit-identical Q tables, returns and
// learning curves. The worker count is purely a throughput knob.
//
// Semantically the protocol is minibatch SARSA: episodes inside one
// batch bootstrap from values at most MergeBatch episodes stale. The
// sequential schedule (Workers = 0) remains the paper's Algorithm 1
// exactly as printed.
package sarsa

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/qtable"
)

// MergeBatch is the number of episodes between deterministic merges.
// It is a protocol constant, not a tuning knob: changing it changes the
// learned values (episodes would bootstrap from a different frozen
// view), so it must be identical across worker counts — which it
// trivially is, being a constant.
const MergeBatch = 32

// episodeSeed derives the rng seed for one episode index from the run
// seed — a splitmix64 finalizer, so consecutive indices land far apart.
func episodeSeed(base int64, i int) int64 {
	z := uint64(base) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// initialQ builds the run's starting table: zeros in the representation
// qtable.New picks for n items, or a clone of the warm-start table, in
// its own representation, when Config.Init is set.
func initialQ(cfg Config, n int) (*qtable.Table, error) {
	if cfg.Init == nil {
		return qtable.New(n), nil
	}
	if cfg.Init.Size() != n {
		return nil, fmt.Errorf("sarsa: warm-start table over %d items, catalog has %d", cfg.Init.Size(), n)
	}
	return cfg.Init.Clone(), nil
}

// walker is one episode-walking slot: a reusable episode, scratch
// buffers and delta storage owned by whichever goroutine holds the slot.
type walker struct {
	ep *mdp.Episode
	sc scratch
}

// walkEpisode runs episode epi against the frozen table q, recording
// TD targets into d (reset first) and returning the episode's total
// undiscounted reward. It mirrors the sequential loop of LearnContext
// step for step; only the table write is deferred to the merge.
func (w *walker) walkEpisode(env *mdp.Env, q *qtable.Table, cfg Config, eps float64, epi int, d *qtable.Delta) (float64, error) {
	d.Reset()
	rng := rand.New(rand.NewSource(episodeSeed(cfg.Seed, epi)))
	start := cfg.Start
	if start == RandomStart {
		start = rng.Intn(env.NumItems())
	}
	var err error
	if w.ep == nil {
		w.ep, err = env.Start(start)
	} else {
		err = w.ep.Reset(start)
	}
	if err != nil {
		return 0, err
	}
	ep := w.ep

	var total float64
	s := start
	e := selectAction(env, ep, s, q, cfg.Selection, eps, rng, &w.sc)
	for e >= 0 {
		r := ep.Step(e)
		total += r
		sNext := e
		eNext := -1
		if !ep.Done() {
			eNext = selectAction(env, ep, sNext, q, cfg.Selection, eps, rng, &w.sc)
		}
		target := eNext
		if cfg.Algorithm == QLearning && !ep.Done() {
			if best, ok := q.ArgMax(sNext, ep.CanStep); ok {
				target = best
			}
		}
		// The TD target is fully evaluated against the frozen view here;
		// the merge only replays Q(s,e) ← Q(s,e) + α(target − Q(s,e)).
		tv := r
		if target >= 0 {
			tv += cfg.Gamma * q.Get(sNext, target)
		}
		d.Record(s, e, tv)
		s, e = sNext, eNext
	}
	return total, nil
}

// learnBatched is the Workers >= 1 schedule of LearnContext. The
// context is checked at batch boundaries (never inside the per-step hot
// loop): a deadline after at least one merged batch checkpoints the
// table learned so far with Result.Interrupted set, so the partial
// artifact reports a whole number of merge rounds.
func learnBatched(ctx context.Context, env *mdp.Env, cfg Config, q *qtable.Table) (*Result, error) {
	n := env.NumItems()
	workers := cfg.Workers
	if workers > cfg.Episodes {
		workers = cfg.Episodes
	}
	if workers > MergeBatch {
		workers = MergeBatch
	}
	eps := cfg.explore()

	walkers := make([]walker, workers)
	deltas := make([]*qtable.Delta, MergeBatch)
	for i := range deltas {
		deltas[i] = qtable.NewDelta(n)
	}
	rets := make([]float64, MergeBatch)
	errs := make([]error, MergeBatch)

	capHint := cfg.Episodes
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	returns := make([]float64, 0, capHint)
	batches := 0
	interrupted := false

	for lo := 0; lo < cfg.Episodes; lo += MergeBatch {
		if err := ctx.Err(); err != nil {
			if lo == 0 {
				return nil, err
			}
			interrupted = true
			break
		}
		hi := lo + MergeBatch
		if hi > cfg.Episodes {
			hi = cfg.Episodes
		}
		m := hi - lo

		spawn := workers
		if spawn > m {
			spawn = m
		}
		if spawn <= 1 {
			// One walker: no goroutines, same protocol. The delta/merge
			// split still runs so the result is bit-identical to any
			// other worker count.
			for i := 0; i < m; i++ {
				rets[i], errs[i] = walkers[0].walkEpisode(env, q, cfg, eps, lo+i, deltas[i])
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			wg.Add(spawn)
			for w := 0; w < spawn; w++ {
				wk := &walkers[w]
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= m {
							return
						}
						rets[i], errs[i] = wk.walkEpisode(env, q, cfg, eps, lo+i, deltas[i])
					}
				}()
			}
			wg.Wait()
		}
		for i := 0; i < m; i++ {
			if errs[i] != nil {
				return nil, errs[i]
			}
		}
		// Single-threaded merge in episode-index order — the only writes
		// the shared table ever sees.
		for i := 0; i < m; i++ {
			q.Merge(deltas[i], cfg.Alpha)
			returns = append(returns, rets[i])
			if cfg.OnEpisode != nil {
				cfg.OnEpisode(lo + i)
			}
		}
		batches++
	}

	return &Result{
		Policy:         &Policy{Q: q},
		EpisodeReturns: returns,
		Interrupted:    interrupted,
		MergeBatches:   batches,
	}, nil
}
