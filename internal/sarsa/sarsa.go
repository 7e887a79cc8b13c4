// Package sarsa implements the learning and recommendation procedures of
// Algorithm 1 (§III-C): an on-policy SARSA agent that learns the Q table
// over the item graph, and a recommender that walks the learned table
// greedily from a start item until the trajectory budget H is spent.
//
// Action selection during learning follows Algorithm 1, which picks the
// action maximizing the immediate reward of Equation 2 (lines 4 and 9),
// augmented with ε-greedy random exploration so that the number of
// episodes N, the learning rate α and the discount factor γ have the
// effect the robustness study (§IV-E) observes. A Q-greedy selection
// variant is provided for the ablation study.
package sarsa

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/qtable"
)

// Selection chooses how the learner picks actions during training.
type Selection uint8

const (
	// RewardGreedy selects the action with the highest immediate Equation 2
	// reward (Algorithm 1 lines 4 and 9), with random tie-breaking.
	RewardGreedy Selection = iota
	// QGreedy selects the action with the highest current Q value,
	// breaking ties by immediate reward — the classical SARSA exploitation
	// rule, used by the ablation bench.
	QGreedy
)

// String names the selection strategy.
func (s Selection) String() string {
	switch s {
	case RewardGreedy:
		return "reward-greedy"
	case QGreedy:
		return "q-greedy"
	default:
		return fmt.Sprintf("Selection(%d)", uint8(s))
	}
}

// RandomStart requests a uniformly random start item each episode.
const RandomStart = -1

// Algorithm selects the temporal-difference update rule.
type Algorithm uint8

const (
	// SARSA is the on-policy update of Equation 9 (the paper's choice:
	// "known to converge faster and with fewer errors", §III-C).
	SARSA Algorithm = iota
	// QLearning is the off-policy variant whose target uses
	// max_a Q(s', a) over the remaining candidates instead of Q(s', e') —
	// provided for the ablation bench that checks the paper's
	// SARSA-over-alternatives claim.
	QLearning
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case SARSA:
		return "sarsa"
	case QLearning:
		return "q-learning"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// Config parameterizes the learner. Table III defaults: N = 500 (Univ-1,
// trips) or 100 (Univ-2), α = 0.75, γ = 0.95 for courses and α = 0.95,
// γ = 0.75 for trips.
type Config struct {
	// Episodes is N, the number of learning episodes.
	Episodes int
	// Alpha is the learning rate α ∈ (0, 1].
	Alpha float64
	// Gamma is the discount factor γ ∈ [0, 1].
	Gamma float64
	// Start is s_1, the fixed start item index, or RandomStart.
	Start int
	// Selection picks the exploitation rule (RewardGreedy by default).
	Selection Selection
	// Algorithm picks the TD update rule (SARSA by default).
	Algorithm Algorithm
	// Explore is the ε-greedy exploration probability (default 0.2 when
	// zero and DisableExplore is false).
	Explore float64
	// DisableExplore turns exploration off entirely — Algorithm 1 exactly
	// as printed. Learning then repeats one trajectory per start state.
	DisableExplore bool
	// Seed drives all randomness; the same seed reproduces the same policy.
	Seed int64
	// Workers selects the training schedule. 0 keeps the sequential
	// Algorithm 1 loop exactly as before (one rng stream threaded through
	// every episode). Any value >= 1 switches to the batch-synchronous
	// parallel protocol of DESIGN §12: episodes carry seed-indexed rngs,
	// walk against the Q table frozen at the last batch boundary, and
	// their recorded deltas merge in episode-index order after every
	// MergeBatch episodes. The protocol is bit-identical for every
	// Workers >= 1 — Workers=1 and Workers=64 produce the same Q table —
	// so the worker count is purely a throughput knob.
	Workers int
	// DenseQMax overrides the dense/sparse threshold of the learned Q
	// table (<= 0 means qtable.DefaultDenseMaxItems), threaded through
	// core.Options.
	DenseQMax int
	// Init warm-starts learning from an existing Q table instead of
	// zeros (the table is cloned, never mutated). The incremental
	// retraining path feeds a transfer-mapped table from the nearest
	// existing artifact here, paired with a distance-scaled episode
	// budget. Init must cover the environment's catalog size.
	Init *qtable.Table
	// OnEpisode, when non-nil, observes each completed episode index
	// (0-based). Progress reporting and the deadline tests hook it; it
	// runs outside the per-step hot loop, so a cheap callback does not
	// perturb learning performance. Under the parallel schedule it is
	// invoked during the single-threaded merge, in episode order.
	OnEpisode func(i int)
}

// DefaultExplore is the exploration probability used when Config.Explore
// is zero.
const DefaultExplore = 0.2

// Validate checks parameter ranges. The range tests are written so that
// NaN fails them too.
func (c Config) Validate() error {
	if c.Episodes <= 0 {
		return fmt.Errorf("sarsa: episodes = %d, want > 0", c.Episodes)
	}
	if !(c.Alpha > 0 && c.Alpha <= 1) {
		return fmt.Errorf("sarsa: α = %g, want (0,1]", c.Alpha)
	}
	if !(c.Gamma >= 0 && c.Gamma <= 1) {
		return fmt.Errorf("sarsa: γ = %g, want [0,1]", c.Gamma)
	}
	if !(c.Explore >= 0 && c.Explore <= 1) {
		return fmt.Errorf("sarsa: explore = %g, want [0,1]", c.Explore)
	}
	if c.Workers < 0 {
		return fmt.Errorf("sarsa: workers = %d, want >= 0", c.Workers)
	}
	return nil
}

// explore returns the effective exploration probability.
func (c Config) explore() float64 {
	if c.DisableExplore {
		return 0
	}
	if c.Explore == 0 {
		return DefaultExplore
	}
	return c.Explore
}

// Policy is a learned Q table together with the ids of the items its
// indices refer to, so it can be persisted and transferred across catalogs.
//
// After training completes, a Policy is immutable: the recommendation
// walk reads Q directly from any number of goroutines, so Q must not be
// mutated once a policy serves. Relearning and feedback adaptation
// produce a new Policy rather than updating one in place.
type Policy struct {
	// Q is the learned action-value table.
	Q *qtable.Table
	// IDs aligns Q's indices with item ids of the learning catalog.
	IDs []string
}

// Result reports what a learning run produced.
type Result struct {
	// Policy is the learned policy.
	Policy *Policy
	// EpisodeReturns holds the total (undiscounted) reward collected in
	// each episode, in order — the learning curve.
	EpisodeReturns []float64
	// Interrupted reports that the run stopped at a context deadline
	// before completing Config.Episodes. Policy then holds the
	// best-so-far Q table — a usable checkpoint, since every completed
	// episode's updates are already in the table and the guided
	// recommendation walk enforces validity independently of how
	// converged the values are.
	Interrupted bool
	// MergeBatches counts the deterministic merge rounds the parallel
	// schedule ran (0 under the sequential schedule) — an observability
	// figure for the train_* metrics.
	MergeBatches int
}

// EpisodesCompleted returns how many learning episodes finished — the
// full budget for a complete run, fewer for one checkpointed at its
// deadline. Degraded artifacts surface it so operators can see how far
// training got.
func (r *Result) EpisodesCompleted() int { return len(r.EpisodeReturns) }

// Learn runs Algorithm 1's learning phase on env.
func Learn(env *mdp.Env, cfg Config) (*Result, error) {
	return LearnContext(context.Background(), env, cfg)
}

// LearnContext is Learn under a context: the deadline is checked between
// episodes (never inside the per-step hot loop). When the context expires
// after at least one completed episode, the run checkpoints — it returns
// the Q table learned so far with Result.Interrupted set, not an error —
// so a training budget yields a degraded-but-feasible policy instead of
// nothing. A context that is already dead before the first episode
// returns its error.
func LearnContext(ctx context.Context, env *mdp.Env, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := env.NumItems()
	if n == 0 {
		return nil, fmt.Errorf("sarsa: empty catalog")
	}
	if cfg.Start != RandomStart && (cfg.Start < 0 || cfg.Start >= n) {
		return nil, fmt.Errorf("sarsa: start item %d out of range [0,%d)", cfg.Start, n)
	}
	q, err := initialQ(cfg, n)
	if err != nil {
		return nil, err
	}
	if cfg.Workers >= 1 {
		return learnBatched(ctx, env, cfg, q)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	// Cap the preallocation: Episodes is caller-supplied (on the serving
	// path, request-supplied), and an absurd value must not reserve
	// gigabytes — or blow a training deadline — before the first episode
	// even runs. Beyond the cap the slice grows by appending as usual.
	capHint := cfg.Episodes
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	returns := make([]float64, 0, capHint)
	eps := cfg.explore()
	var sc scratch // reused across every episode and step
	var ep *mdp.Episode

	interrupted := false
	for i := 0; i < cfg.Episodes; i++ {
		if err := ctx.Err(); err != nil {
			if i == 0 {
				return nil, err
			}
			interrupted = true
			break
		}
		start := cfg.Start
		if start == RandomStart {
			start = rng.Intn(n)
		}
		// One Episode serves the whole run: Reset reuses its buffers and
		// rewinds only what the last episode wrote, with no allocation.
		var err error
		if ep == nil {
			ep, err = env.Start(start)
		} else {
			err = ep.Reset(start)
		}
		if err != nil {
			return nil, err
		}
		var total float64

		s := start
		e := selectAction(env, ep, s, q, cfg.Selection, eps, rng, &sc)
		for e >= 0 {
			r := ep.Step(e)
			total += r
			sNext := e
			eNext := -1
			if !ep.Done() {
				eNext = selectAction(env, ep, sNext, q, cfg.Selection, eps, rng, &sc)
			}
			// SARSA bootstraps on the action actually taken next (Eq. 9);
			// Q-learning bootstraps on the best available next action.
			target := eNext
			if cfg.Algorithm == QLearning && !ep.Done() {
				if best, ok := q.ArgMax(sNext, ep.CanStep); ok {
					target = best
				}
			}
			if target >= 0 {
				q.Update(s, e, cfg.Alpha, r, cfg.Gamma, sNext, target)
			} else {
				q.Update(s, e, cfg.Alpha, r, cfg.Gamma, -1, -1)
			}
			s, e = sNext, eNext
		}
		returns = append(returns, total)
		if cfg.OnEpisode != nil {
			cfg.OnEpisode(i)
		}
	}

	return &Result{
		Policy:         &Policy{Q: q, IDs: env.Catalog().IDs()},
		EpisodeReturns: returns,
		Interrupted:    interrupted,
	}, nil
}

// scratch holds the per-learner slices selectAction reuses across steps
// so the learning hot loop allocates nothing. A scratch belongs to one
// goroutine; concurrent learners each carry their own.
type scratch struct {
	cands  []int
	ties   []int
	ties2  []int
	levels []float64
}

// selectAction picks the next item from the episode's candidates, or -1
// when none remain. With probability eps it explores uniformly; otherwise
// it exploits per the selection rule, breaking ties uniformly at random.
//
// When the reward levels give a reward-greedy step its tie set
// (rewardTies), the step takes it without listing or scoring every
// candidate. That set is bestByReward's over the candidate list, in the
// same order, and a tie is a candidate, so the scan would have drawn ε
// next as well: the rng draws are selectByScan's, in the same order.
// Every other step is selectByScan's.
func selectAction(env *mdp.Env, ep *mdp.Episode, s int, q *qtable.Table, sel Selection, eps float64, rng *rand.Rand, sc *scratch) int {
	if sel == RewardGreedy {
		sc.ties = rewardTies(env, ep, sc)
		if ties := sc.ties; len(ties) > 0 {
			if eps > 0 && rng.Float64() < eps {
				sc.cands = ep.AppendCandidates(sc.cands[:0])
				return sc.cands[rng.Intn(len(sc.cands))]
			}
			return ties[rng.Intn(len(ties))]
		}
	}
	return selectByScan(ep, s, q, sel, eps, rng, sc)
}

// selectByScan is selectAction over the full candidate list: it lists
// every steppable item and, when it exploits, scores every candidate.
// It is the path for Q-greedy selection, SoftGate and reward-greedy
// steps without a positive open level, and the reference the tests
// compare selectAction with.
func selectByScan(ep *mdp.Episode, s int, q *qtable.Table, sel Selection, eps float64, rng *rand.Rand, sc *scratch) int {
	sc.cands = ep.AppendCandidates(sc.cands[:0])
	cands := sc.cands
	if len(cands) == 0 {
		return -1
	}
	if eps > 0 && rng.Float64() < eps {
		return cands[rng.Intn(len(cands))]
	}

	var ties []int
	switch sel {
	case QGreedy:
		best := 0.0
		ties = sc.ties[:0]
		for i, c := range cands {
			v := q.Get(s, c)
			switch {
			case i == 0 || v > best:
				best = v
				ties = ties[:0]
				ties = append(ties, c)
			case v == best:
				ties = append(ties, c)
			}
		}
		sc.ties = ties[:0]
		if len(ties) > 1 {
			// Break Q ties by immediate reward, then randomly.
			sc.ties2 = bestByReward(ep, ties, sc.ties2[:0])
			ties = sc.ties2
		}
	default: // RewardGreedy, Algorithm 1 lines 4 and 9
		sc.ties = bestByReward(ep, cands, sc.ties[:0])
		ties = sc.ties
	}
	return ties[rng.Intn(len(ties))]
}

// rewardTies returns bestByReward's tie set over the step's candidates
// when the reward levels give it, and an empty set otherwise. Under the
// multiplicative gate a candidate scores its group's level when its θ
// gate is open and 0 when it is closed. So while some positive level
// has an open candidate, the highest such level is the maximal reward,
// and the ties are the open candidates of every group at exactly that
// level, in index order. The set is empty under SoftGate, when no
// positive level has an open candidate, and when a level is NaN, which
// the scan's comparisons treat differently; selectByScan then decides.
func rewardTies(env *mdp.Env, ep *mdp.Episode, sc *scratch) []int {
	ties := sc.ties[:0]
	lv, ok := ep.RewardLevels(sc.levels[:0])
	sc.levels = lv
	if !ok || slices.ContainsFunc(lv, math.IsNaN) {
		return ties
	}
	w := newLevelWalk(env, lv, false)
	for level, pri, sec, _ := w.next(); level > 0; level, pri, sec, _ = w.next() {
		for _, gs := range [2][]int32{pri, sec} {
			for _, g := range gs {
				for _, a := range env.GroupMembers(int(g)) {
					if ep.CanStep(int(a)) && ep.Reward(int(a)) > 0 {
						ties = append(ties, int(a))
					}
				}
			}
		}
		if len(ties) > 0 {
			if len(pri)+len(sec) > 1 {
				slices.Sort(ties) // several groups' members: back to index order
			}
			return ties
		}
	}
	return ties
}

// completionFits returns, for the episode's current step, the test of
// whether, after taking item a, the k cheapest remaining steppable items
// still fit within the credit ceiling. It sorts the step's candidate
// credits once, on the first call, and keeps the k+1 cheapest: the k
// cheapest candidates other than a are those with one copy of a's own
// credit removed when a is a candidate, summed in the same ascending
// order as a sort of the other candidates' credits would give.
func completionFits(env *mdp.Env, ep *mdp.Episode, ceiling float64, k int) func(a int) bool {
	var cheapest []float64 // the k+1 cheapest candidate credits, ascending
	cands := -1
	return func(a int) bool {
		own := env.ItemCredits(a)
		budget := ceiling - ep.Credits() - own
		if budget < 0 {
			return false
		}
		if cands < 0 {
			for i := 0; i < env.NumItems(); i++ {
				if ep.CanStep(i) {
					cheapest = append(cheapest, env.ItemCredits(i))
				}
			}
			cands = len(cheapest)
			sort.Float64s(cheapest)
			cheapest = cheapest[:min(k+1, cands)]
		}
		skip := ep.CanStep(a)
		if skip && cands-1 < k || !skip && cands < k {
			return false
		}
		var need float64
		for i, taken := 0, 0; taken < k; i++ {
			if skip && cheapest[i] == own {
				skip = false
				continue
			}
			need += cheapest[i]
			taken++
		}
		return need <= budget
	}
}

// rewardTol is the margin within which bestRewardThenQ counts two
// immediate rewards as tied.
const rewardTol = 1e-9

// bestRewardThenQ returns, among the allowed actions with strictly
// positive immediate reward, the maximal-reward ones refined by the
// highest Q value (lowest index on exact Q ties, for determinism). It
// scores every item; tierOne answers the same question level by level
// and falls back to it. The tie list reuses sc.ties.
func bestRewardThenQ(ep *mdp.Episode, q qtable.Reader, s int, allowed func(int) bool, sc *walkScratch) (int, bool) {
	bestR := 0.0
	ties := sc.ties[:0]
	for a := 0; a < q.Size(); a++ {
		if !allowed(a) {
			continue
		}
		r := ep.Reward(a)
		if r <= 0 {
			continue
		}
		switch {
		case r > bestR+rewardTol:
			bestR = r
			ties = ties[:0]
			ties = append(ties, a)
		case r >= bestR-rewardTol:
			ties = append(ties, a)
		}
	}
	sc.ties = ties
	if len(ties) == 0 {
		return -1, false
	}
	best := ties[0]
	for _, a := range ties[1:] {
		if q.Get(s, a) > q.Get(s, best) {
			best = a
		}
	}
	return best, true
}

// levelWalk visits a step's positive reward levels in decreasing order.
// It merges the two types' group lists (mdp.Env.GroupsByWeight), in each
// of which the levels do not increase, since a level is δ·sim(t) + β·w
// with β ≥ 0. A level that is not positive (NaN included) ends a list.
type levelWalk struct {
	lv       []float64
	pri, sec []int32
	top      float64 // the highest level left, 0 when none is positive
}

// newLevelWalk starts a walk over the levels lv (Episode.RewardLevels);
// primaryOnly leaves the secondary groups out.
func newLevelWalk(env *mdp.Env, lv []float64, primaryOnly bool) levelWalk {
	w := levelWalk{lv: lv, pri: env.GroupsByWeight(item.Primary), sec: env.GroupsByWeight(item.Secondary)}
	if primaryOnly {
		w.sec = nil
	}
	w.top = max(headLevel(lv, w.pri), headLevel(lv, w.sec))
	return w
}

// next consumes the groups at the highest level left. It returns that
// level, the primary and the secondary groups at exactly it, and the
// highest level left below it (0 when none). The level is 0, and the
// walk over, when no positive level is left.
func (w *levelWalk) next() (level float64, pri, sec []int32, below float64) {
	level = w.top
	if level <= 0 {
		return 0, nil, nil, 0
	}
	pri, w.pri = splitLevel(w.lv, w.pri, level)
	sec, w.sec = splitLevel(w.lv, w.sec, level)
	w.top = max(headLevel(w.lv, w.pri), headLevel(w.lv, w.sec))
	return level, pri, sec, w.top
}

// headLevel is the level of the first group of gs, 0 when it is not
// positive or gs is empty.
func headLevel(lv []float64, gs []int32) float64 {
	if len(gs) > 0 && lv[gs[0]] > 0 {
		return lv[gs[0]]
	}
	return 0
}

// splitLevel splits off the groups at the head of gs whose level is
// exactly level.
func splitLevel(lv []float64, gs []int32, level float64) (at, rest []int32) {
	i := 0
	for i < len(gs) && lv[gs[i]] == level {
		i++
	}
	return gs[:i], gs[i:]
}

// tierOne is the guided walk's first tier: what bestRewardThenQ returns,
// found without scoring every item. Under the multiplicative gate an
// open item's reward is its reward group's level at this step and a
// closed item's is 0 (mdp.Episode.RewardLevels). tierOne visits the
// positive levels in decreasing order (levelWalk) and stops at the
// first level with an allowed open member. It returns Q's arg-max over
// that level's allowed open items: the highest Q, lowest index on exact
// ties, as bestRewardThenQ breaks them; qtable.Table.ArgMax stops at the
// first allowed zero once no allowed cell is positive. primaryOnly (the
// split rule, guidedMask) drops the secondary groups, whose items
// allowed refuses. It defers to bestRewardThenQ under SoftGate, and when
// the level it reaches and the next lower one (or 0) fail either of that
// scan's two tolerance comparisons: there its tie set can take in lower
// levels, depending on catalog order. When both hold, its ties are
// exactly the level's items.
func tierOne(env *mdp.Env, ep *mdp.Episode, r qtable.Reader, s int, allowed func(int) bool, primaryOnly bool, sc *walkScratch) (int, bool) {
	lv, ok := ep.RewardLevels(sc.levels[:0])
	sc.levels = lv
	if !ok {
		return bestRewardThenQ(ep, r, s, allowed, sc)
	}
	open := func(a int) bool { return allowed(a) && ep.Reward(a) > 0 }
	isOpen := func(a int32) bool { return open(int(a)) }
	hasOpen := func(gs []int32) bool {
		for _, g := range gs {
			if slices.ContainsFunc(env.GroupMembers(int(g)), isOpen) {
				return true
			}
		}
		return false
	}
	w := newLevelWalk(env, lv, primaryOnly)
	for level, pri, sec, next := w.next(); level > 0; level, pri, sec, next = w.next() {
		if !(level > next+rewardTol && next < level-rewardTol) {
			return bestRewardThenQ(ep, r, s, allowed, sc)
		}
		if hasOpen(pri) || hasOpen(sec) {
			return r.ArgMax(s, func(a int) bool {
				return lv[env.RewardGroup(a)] == level && open(a)
			})
		}
	}
	return -1, false
}

// bestByReward filters cands down to those with the maximal immediate
// Equation 2 reward, appending them to dst (pass a reused dst[:0] to
// avoid allocating; dst must not share backing with cands).
func bestByReward(ep *mdp.Episode, cands []int, dst []int) []int {
	best := 0.0
	ties := dst
	for i, c := range cands {
		r := ep.Reward(c)
		switch {
		case i == 0 || r > best:
			best = r
			ties = ties[:0]
			ties = append(ties, c)
		case r == best:
			ties = append(ties, c)
		}
	}
	return ties
}

// Recommend implements Algorithm 1's recommendation phase: starting from
// item start, repeatedly follow the highest-Q action among the remaining
// candidates until the trajectory budget is exhausted. Ties resolve to the
// lowest index so recommendations are deterministic for a given policy.
//
// The returned sequence includes the start item. It can be shorter than
// P_hard's target length when the budget or the candidate set runs out —
// those are the "bad" outcomes the transfer-learning study reports.
func (p *Policy) Recommend(env *mdp.Env, start int) ([]int, error) {
	return p.recommend(env, start, false, nil)
}

// RecommendGuided is Recommend with a validity filter: among the remaining
// candidates it prefers, by Q value, the actions whose Equation 2 gate θ is
// open (topic gain ≥ ε, antecedents satisfied), falling back to the plain
// Q arg-max when no currently-valid action exists. The Q table's state is
// only the last item, so a transition that was valid in the training
// context can be invalid in the recommendation context; the gate θ is part
// of the environment model — not of the learned parameters — so consulting
// it at recommendation time stays within the paper's framework and yields
// the constraint-satisfying plans §IV-B reports.
func (p *Policy) RecommendGuided(env *mdp.Env, start int) ([]int, error) {
	return p.recommend(env, start, true, nil)
}

// RecommendGuidedOver is RecommendGuided reading every action value
// through r instead of the policy's own Q table — the layered serving
// entry point. Passing an overlay whose base is this policy's Q keeps
// unshadowed states on the table's own reads; passing nil (or Q
// itself) is exactly RecommendGuided, bit for bit. r must cover the
// environment's catalog size.
func (p *Policy) RecommendGuidedOver(env *mdp.Env, start int, r qtable.Reader) ([]int, error) {
	return p.recommend(env, start, true, r)
}

func (p *Policy) recommend(env *mdp.Env, start int, guided bool, r qtable.Reader) ([]int, error) {
	if err := p.compatible(env); err != nil {
		return nil, err
	}
	if r == nil {
		r = p.Q
	} else if r.Size() != env.NumItems() {
		return nil, fmt.Errorf("sarsa: reader over %d items applied to catalog of %d",
			r.Size(), env.NumItems())
	}
	// Serve-time episodes come from the environment's pool: Sequence
	// copies the result out, so the episode (and its scratch buffers) can
	// go straight back for the next request.
	ep, err := env.AcquireEpisode(start)
	if err != nil {
		return nil, err
	}
	defer env.ReleaseEpisode(ep)
	var sc walkScratch
	for !ep.Done() {
		e, ok := p.nextAction(env, ep, guided, nil, &sc, r)
		if !ok {
			break
		}
		ep.Step(e)
	}
	return ep.Sequence(), nil
}

// walkScratch carries the per-walk reusable tie and level buffers so one
// recommendation allocates at most once for each regardless of length.
// A walkScratch belongs to one goroutine.
type walkScratch struct {
	ties   []int
	levels []float64
}

// compatible checks that the policy covers the environment's catalog.
func (p *Policy) compatible(env *mdp.Env) error {
	if p.Q == nil {
		return fmt.Errorf("sarsa: nil Q table")
	}
	if p.Q.Size() != env.NumItems() {
		return fmt.Errorf("sarsa: policy over %d items applied to catalog of %d (use transfer.Map)",
			p.Q.Size(), env.NumItems())
	}
	return nil
}

// NextGuided returns the guided walk's next action for an in-progress
// episode, skipping items for which exclude returns true (nil excludes
// nothing). ok is false when no action remains — interactive sessions use
// this to continue a partially human-chosen plan.
func (p *Policy) NextGuided(env *mdp.Env, ep *mdp.Episode, exclude func(int) bool) (int, bool) {
	if p.compatible(env) != nil || ep.Done() {
		return -1, false
	}
	var sc walkScratch
	return p.nextAction(env, ep, true, exclude, &sc, p.Q)
}

// guidedMask builds the split/budget pacing filter of the guided walk for
// the episode's current position. primaryOnly reports that the split
// rule is in force: the filter then refuses every secondary item.
func guidedMask(env *mdp.Env, ep *mdp.Episode) (typeOK func(int) bool, primaryOnly bool) {
	hard := env.Hard()
	typeOK = func(int) bool { return true }
	if hard.Length() == 0 {
		return typeOK, false
	}

	// Split-awareness: when the remaining slots are exactly enough for the
	// outstanding primary requirement, only primaries may fill them (extra
	// primaries are fine — Case I of Theorem 1 — but a shortage is a hard
	// violation).
	var primaries int
	for _, t := range ep.Types() {
		if t == item.Primary {
			primaries++
		}
	}
	needPrimary := hard.Primary - primaries
	left := hard.Length() - ep.Len()
	if needPrimary > 0 && needPrimary >= left {
		primaryOnly = true
		typeOK = func(a int) bool { return env.ItemType(a) == item.Primary }
	}

	// Budget-awareness under a credit ceiling (trips): the time and
	// distance budgets must be paced across the remaining slots — a
	// 2.5-hour museum or a cross-town leg taken mid-plan leaves no room to
	// reach the required length. A candidate must (a) stay within a
	// slack-adjusted per-slot share of both budgets and (b) leave enough
	// time for the cheapest completion.
	if hard.CreditMode == constraints.MaxCredits && left > 1 {
		inner := typeOK
		remTime := hard.Credits - ep.Credits()
		remDist := hard.MaxDistanceKm - ep.Distance()
		last := ep.Last()
		fits := completionFits(env, ep, hard.Credits, left-1)
		const slack = 1.6
		typeOK = func(a int) bool {
			if !inner(a) {
				return false
			}
			if env.ItemCredits(a) > slack*remTime/float64(left) {
				return false
			}
			// env.Dist serves legs from the environment's precomputed
			// distance matrix, the same geometry the step loop measures.
			if hard.MaxDistanceKm > 0 && env.Dist(last, a) > slack*remDist/float64(left) {
				return false
			}
			return fits(a)
		}
	}
	return typeOK, primaryOnly
}

// nextAction picks one action for the episode's current state, reading
// action values through r — the policy's Q table on the default path,
// or a per-user overlay layered over it on the personalized one.
func (p *Policy) nextAction(env *mdp.Env, ep *mdp.Episode, guided bool, exclude func(int) bool, sc *walkScratch, r qtable.Reader) (int, bool) {
	s := ep.Last()
	allowed := func(a int) bool {
		return ep.CanStep(a) && (exclude == nil || !exclude(a))
	}

	// argmax picks the highest-Q action under a mask, breaking Q ties by
	// immediate Equation 2 reward and then by index. Tie-breaking matters:
	// states the training episodes never reached have all-zero Q rows, and
	// there the immediate reward is the only signal.
	argmax := func(mask func(int) bool) (int, bool) {
		sc.ties = r.AppendArgMaxTies(s, mask, sc.ties[:0])
		ties := sc.ties
		switch len(ties) {
		case 0:
			return -1, false
		case 1:
			return ties[0], true
		}
		best, bestR := ties[0], ep.Reward(ties[0])
		for _, a := range ties[1:] {
			if r := ep.Reward(a); r > bestR {
				best, bestR = a, r
			}
		}
		return best, true
	}

	if guided {
		typeOK, primaryOnly := guidedMask(env, ep)
		// Tier 1: actions with an open θ gate (full Equation 2 validity).
		// The learned policy prefers, like its training selection rule
		// (Algorithm 1 lines 4 and 9), the actions with the maximal
		// immediate reward, and uses the learned Q values to pick among
		// them — Q supplies the lookahead that distinguishes RL-Planner
		// from the purely myopic EDA baseline.
		if e, ok := tierOne(env, ep, r, s, func(a int) bool {
			return allowed(a) && typeOK(a)
		}, primaryOnly, sc); ok {
			return e, true
		}
		// Tier 2: actions that at least respect the hard gap rules (r2),
		// even when the ε topic-gain gate is closed — topic coverage is a
		// soft constraint, antecedent gaps are hard.
		if e, ok := argmax(func(a int) bool {
			if !allowed(a) || !typeOK(a) {
				return false
			}
			tr := ep.TransitionScratch(a)
			return tr.PrereqOK && tr.ThemeOK
		}); ok {
			return e, true
		}
		// Tier 3: at least respect the split/budget pacing.
		if e, ok := argmax(func(a int) bool {
			return allowed(a) && typeOK(a)
		}); ok {
			return e, true
		}
	}
	return argmax(allowed)
}

// Ranked is one candidate action with the guided walk's ranking facts.
type Ranked struct {
	// Item is the catalog index.
	Item int
	// Tier is the guided tier that admits the action: 1 = fully valid
	// (θ open), 2 = hard rules hold but the ε gate is closed, 3 = only
	// the pacing filter holds, 4 = merely steppable.
	Tier int
	// Reward is the immediate Equation 2 reward.
	Reward float64
	// Q is the learned action value from the current state.
	Q float64
}

// RankActions returns up to k candidate next actions in the guided walk's
// preference order (tier, then reward, then Q, then index) — the
// suggestion list of an interactive session.
func (p *Policy) RankActions(env *mdp.Env, ep *mdp.Episode, k int, exclude func(int) bool) []Ranked {
	if p.compatible(env) != nil || ep.Done() || k <= 0 {
		return nil
	}
	s := ep.Last()
	typeOK, _ := guidedMask(env, ep)
	var out []Ranked
	for a := 0; a < env.NumItems(); a++ {
		if !ep.CanStep(a) || (exclude != nil && exclude(a)) {
			continue
		}
		r := ep.Reward(a)
		tr := ep.TransitionScratch(a)
		tier := 4
		switch {
		case typeOK(a) && r > 0:
			tier = 1
		case typeOK(a) && tr.PrereqOK && tr.ThemeOK:
			tier = 2
		case typeOK(a):
			tier = 3
		}
		out = append(out, Ranked{Item: a, Tier: tier, Reward: r, Q: p.Q.Get(s, a)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tier != out[j].Tier {
			return out[i].Tier < out[j].Tier
		}
		if out[i].Reward != out[j].Reward {
			return out[i].Reward > out[j].Reward
		}
		if out[i].Q != out[j].Q {
			return out[i].Q > out[j].Q
		}
		return out[i].Item < out[j].Item
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
