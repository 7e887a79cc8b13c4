// Package mdp models TPP as the deterministic discrete constrained MDP of
// §III-A: states are items of a complete item graph G = ⟨I, E⟩, an action
// adds one item and induces a transition, and every transition carries the
// reward of Equation 2. An Episode tracks the trajectory state the reward
// needs — the current topic coverage T_current, the positions of chosen
// items (for antecedent gaps), the running type sequence, credits and, for
// trips, path distance.
//
// Trajectory length H follows §III-A: count-based for course planning
// (H = #cr / cr per course) and budget-based for trip planning (terminate
// when the visitation time budget is exhausted).
package mdp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/rlplanner/rlplanner/internal/bitset"
	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/prereq"
	"github.com/rlplanner/rlplanner/internal/reward"
)

// Budget decides when a trajectory ends (the H of §III-A).
type Budget interface {
	// Done reports whether an episode with the given total credits and
	// item count is complete.
	Done(credits float64, count int) bool
	// Allows reports whether an item worth itemCredits may still be added.
	Allows(credits float64, count int, itemCredits float64) bool
}

// CountBudget ends an episode after exactly H items — the course-planning
// trajectory (e.g. 30 required credits at 3 per course → H = 10).
type CountBudget struct {
	// H is the number of items per episode.
	H int
}

// Done implements Budget.
func (b CountBudget) Done(_ float64, count int) bool { return count >= b.H }

// Allows implements Budget.
func (b CountBudget) Allows(_ float64, count int, _ float64) bool { return count < b.H }

// TimeBudget ends an episode when the visitation-time budget is spent —
// the trip-planning trajectory (e.g. H = 6 hours). MaxItems additionally
// caps the itinerary at #primary + #secondary POIs when positive.
type TimeBudget struct {
	// Hours is the total visitation time available.
	Hours float64
	// MaxItems caps the number of POIs; 0 means no cap.
	MaxItems int
}

// Done implements Budget.
func (b TimeBudget) Done(credits float64, count int) bool {
	if b.MaxItems > 0 && count >= b.MaxItems {
		return true
	}
	return credits >= b.Hours
}

// Allows implements Budget.
func (b TimeBudget) Allows(credits float64, count int, itemCredits float64) bool {
	return !b.Done(credits, count) && credits+itemCredits <= b.Hours
}

// itemFacts is the flat, Env-static per-item record the per-candidate hot
// path reads instead of copying whole item.Item values (whose strings and
// interface fields the step loop never needs) out of the catalog.
type itemFacts struct {
	// topics is T^m, unioned into T_current on admission.
	topics bitset.Set
	// idealTopics is T^m ∩ T_ideal: Equation 3's coverage gain is
	// |idealTopics \ T_current|, one masked popcount per candidate.
	idealTopics bitset.Set
	credits     float64
	popularity  float64
	category    int
	typ         item.Type
}

// Env is the TPP environment: one catalog with its constraints, reward
// configuration and trajectory budget. Env is immutable and safe for
// concurrent use; per-trajectory state lives in Episode.
//
// NewEnv precomputes everything an episode step needs that does not depend
// on trajectory state: flat per-item transition facts (itemFacts), compiled
// index-based prerequisite programs with their reverse dependency index,
// and — when a distance constraint is active — the pairwise POI distance
// matrix. See DESIGN.md "Precomputation layer".
type Env struct {
	catalog *item.Catalog
	hard    constraints.Hard
	soft    constraints.Soft
	reward  reward.Config
	budget  Budget
	// idealSize caches |T_ideal| so candidate evaluation does not
	// recount the ideal vector on every transition.
	idealSize int

	// facts holds the Env-static per-item transition facts, index-aligned
	// with the catalog.
	facts []itemFacts
	// pts holds every item's coordinates for the Haversine fallback when
	// dist is nil (no distance constraint active).
	pts []geo.Point
	// dist is the pairwise distance store, non-nil only when
	// hard.MaxDistanceKm > 0: the exact matrix for small catalogs, exact
	// per-call Haversine mid-range, quantized neighbor bands at scale
	// (geo.NewDistStore selects by catalog size).
	dist geo.Store
	// distMat aliases dist when the store is the exact matrix, so the
	// per-candidate leg lookup in CanStep is a direct, inlinable call
	// instead of interface dispatch — the matrix tier is exactly the
	// catalog range where that lookup dominates the step profile.
	distMat *geo.DistMatrix
	// legMax is dist.MaxDist(), the longest leg the store can report.
	// While more than legMax of the distance budget remains, no leg can
	// exceed it, and CanStep skips the per-candidate lookup.
	legMax float64
	// group is each item's reward group: items of one type whose static
	// weight reward.Config.Weight is the same float score the same reward
	// whenever their θ gates are open (Episode.RewardLevels).
	group []int32
	// members lists every group's items in increasing index order, group
	// g's at members[memberStart[g]:memberStart[g+1]].
	members     []int32
	memberStart []int32
	// byWeight[t] lists type t's groups in decreasing order of weight (NaN
	// last): the order their levels fall in at every step, since a level
	// is δ·sim(t) + β·w with β ≥ 0.
	byWeight [2][]int32
	// prereqs are the compiled prerequisite programs + reverse dependencies.
	prereqs *prereq.Compiled
	// prereqInit[i] is item i's prerequisite status with nothing placed —
	// the starting value of every episode's incremental cache.
	prereqInit []bool
	// gapStep is max(hard.Gap, 1): between consecutive steps the frontier
	// position advances by one, so the single antecedent position that newly
	// crosses the gap threshold is seq[pos-gapStep].
	gapStep int

	// epPool recycles Episodes across serve-time recommendation walks (see
	// AcquireEpisode). Episode buffers are sized by the Env they were built
	// against, so the pool lives on the Env rather than the package.
	epPool sync.Pool
}

// NewEnv validates the pieces and builds an environment.
func NewEnv(c *item.Catalog, hard constraints.Hard, soft constraints.Soft,
	rw reward.Config, budget Budget) (*Env, error) {
	if c == nil {
		return nil, fmt.Errorf("mdp: nil catalog")
	}
	if budget == nil {
		return nil, fmt.Errorf("mdp: nil budget")
	}
	if err := rw.Validate(); err != nil {
		return nil, err
	}
	if soft.Ideal.Len() != c.Vocabulary().Len() {
		return nil, fmt.Errorf("mdp: ideal vector length %d, vocabulary %d",
			soft.Ideal.Len(), c.Vocabulary().Len())
	}
	if hard.Length() > 0 {
		if err := soft.Template.Validate(hard.Primary, hard.Secondary); err != nil {
			return nil, err
		}
	}
	e := &Env{catalog: c, hard: hard, soft: soft, reward: rw, budget: budget,
		idealSize: soft.Ideal.Count()}

	n := c.Len()
	e.facts = make([]itemFacts, n)
	e.pts = make([]geo.Point, n)
	exprs := make([]prereq.Expr, n)
	for i := 0; i < n; i++ {
		m := c.At(i)
		// Episodes score the similarity term once per type per step
		// (Episode.simByType), so only the two types have a slot.
		if m.Type != item.Primary && m.Type != item.Secondary {
			return nil, fmt.Errorf("mdp: item %q has %v, want primary or secondary", m.ID, m.Type)
		}
		e.facts[i] = itemFacts{
			// Catalog topic vectors arrive density-compacted; the per-item
			// ideal intersection is compacted too, so the fact table costs
			// bytes per set topic instead of vocab/8 per item.
			topics:      m.Topics,
			idealTopics: m.Topics.Intersect(soft.Ideal).Compact(),
			credits:     m.Credits,
			popularity:  m.Popularity,
			category:    m.Category,
			typ:         m.Type,
		}
		e.pts[i] = geo.Point{Lat: m.Lat, Lon: m.Lon}
		exprs[i] = m.Prereq
	}
	e.groupByWeight()
	if hard.MaxDistanceKm > 0 {
		e.dist = geo.NewDistStore(e.pts)
		e.distMat, _ = e.dist.(*geo.DistMatrix)
		e.legMax = e.dist.MaxDist()
	}
	compiled, err := prereq.Compile(exprs, c.Index)
	if err != nil {
		return nil, fmt.Errorf("mdp: %w", err)
	}
	e.prereqs = compiled
	// With nothing placed, a program's value is position-independent (every
	// reference reads "absent"), so one evaluation seeds every episode.
	none := make([]int32, n)
	for i := range none {
		none[i] = -1
	}
	e.prereqInit = make([]bool, n)
	for i := 0; i < n; i++ {
		e.prereqInit[i] = compiled.Eval(i, 0, none, hard.Gap)
	}
	e.gapStep = hard.Gap
	if e.gapStep < 1 {
		e.gapStep = 1
	}
	return e, nil
}

// groupByWeight assigns every item its reward group, lists each group's
// members and orders each type's groups by weight.
func (e *Env) groupByWeight() {
	type key struct {
		typ item.Type
		w   uint64
	}
	ids := make(map[key]int32)
	var weights []float64
	e.group = make([]int32, len(e.facts))
	for i := range e.facts {
		f := &e.facts[i]
		w := e.reward.Weight(f.typ, f.category, f.popularity)
		k := key{f.typ, math.Float64bits(w)}
		g, ok := ids[k]
		if !ok {
			g = int32(len(weights))
			ids[k] = g
			weights = append(weights, w)
			e.byWeight[f.typ] = append(e.byWeight[f.typ], g)
		}
		e.group[i] = g
	}
	for _, gs := range e.byWeight {
		slices.SortFunc(gs, func(a, b int32) int { return cmp.Compare(weights[b], weights[a]) })
	}
	e.memberStart = make([]int32, len(weights)+1)
	for _, g := range e.group {
		e.memberStart[g+1]++
	}
	for g := range weights {
		e.memberStart[g+1] += e.memberStart[g]
	}
	e.members = make([]int32, len(e.group))
	fill := slices.Clone(e.memberStart[:len(weights)])
	for i, g := range e.group {
		e.members[fill[g]] = int32(i)
		fill[g]++
	}
}

// RewardGroup returns item i's reward group, an index into the levels
// Episode.RewardLevels fills.
func (e *Env) RewardGroup(i int) int { return int(e.group[i]) }

// GroupMembers returns the items of reward group g in increasing index
// order. The slice is shared and must not be modified.
func (e *Env) GroupMembers(g int) []int32 {
	return e.members[e.memberStart[g]:e.memberStart[g+1]]
}

// GroupsByWeight returns the reward groups of type t in decreasing order
// of static weight, so in non-increasing order of level at every step.
// The slice is shared and must not be modified.
func (e *Env) GroupsByWeight(t item.Type) []int32 { return e.byWeight[t] }

// ItemType returns item i's type without copying its catalog entry.
func (e *Env) ItemType(i int) item.Type { return e.facts[i].typ }

// ItemCredits returns item i's credits (hours, for a POI) without copying
// its catalog entry.
func (e *Env) ItemCredits(i int) float64 { return e.facts[i].credits }

// Dist returns the great-circle distance in kilometers between items i and
// j, served from the environment's distance store when a distance
// constraint is active. Baselines and the guided recommendation walk route
// their leg computations through this so every consumer measures the same
// geometry as the learner.
func (e *Env) Dist(i, j int) float64 {
	if e.distMat != nil {
		return e.distMat.Dist(i, j)
	}
	if e.dist != nil {
		return e.dist.Dist(i, j)
	}
	return geo.Haversine(e.pts[i], e.pts[j])
}

// DistStoreBytes reports the resident bytes of the active distance store
// (0 when no distance constraint is active) — the memory-accounting hook
// the engine's cache budgeting and the scale harness read.
func (e *Env) DistStoreBytes() int {
	if e.dist == nil {
		return 0
	}
	return e.dist.SizeBytes()
}

// Catalog returns the environment's item catalog.
func (e *Env) Catalog() *item.Catalog { return e.catalog }

// Hard returns P_hard.
func (e *Env) Hard() constraints.Hard { return e.hard }

// Soft returns P_soft.
func (e *Env) Soft() constraints.Soft { return e.soft }

// RewardConfig returns the Equation 2 configuration.
func (e *Env) RewardConfig() reward.Config { return e.reward }

// Budget returns the trajectory budget.
func (e *Env) Budget() Budget { return e.budget }

// NumItems returns |I|, the size of the state space.
func (e *Env) NumItems() int { return e.catalog.Len() }

// Episode is the mutable state of one trajectory. An Episode is NOT safe
// for concurrent use: candidate evaluation reuses per-episode scratch
// buffers (see TransitionScratch). Concurrent learners each run their own
// Episode against a shared, immutable Env.
type Episode struct {
	env      *Env
	seq      []int
	seqTypes []item.Type
	// positions is the index-aligned placement array the compiled
	// prerequisite programs read: positions[i] is item i's 0-based sequence
	// position, -1 while unchosen.
	positions []int32
	current   bitset.Set // T_current
	credits   float64
	distance  float64
	chosen    []bool
	// prereqOK is the incremental prerequisite cache: prereqOK[i] holds
	// prereq-satisfaction of item i at the current frontier position
	// len(seq). admit updates only the dependents of the antecedent that
	// newly crossed the gap threshold, so candidate evaluation is a single
	// bool load (satisfaction is monotone within an episode: positions only
	// gain entries and the frontier only advances).
	prereqOK []bool
	// candTypes is the scratch type sequence for candidate evaluation:
	// seqTypes plus one slot for the candidate's type. It is rebuilt once
	// per step (in admit), so evaluating a candidate only writes the final
	// slot — no per-candidate copy of the type sequence.
	candTypes []item.Type
	// simByType[t] is Equation 2's similarity term for a candidate of
	// type t. The term depends on the candidate only through its type,
	// so admit scores it once per type and Reward reads it.
	simByType [2]float64
	// themeBlock is the category the trip theme-gap rule forbids next:
	// the last item's category when the rule is on, else NoCategory.
	themeBlock int
	// legCheck reports that the distance budget can still bind: a
	// threshold d is set and distance + legMax > d. While it is false,
	// no leg can overrun the budget, so CanStep skips the lookup
	// (floating-point addition is monotone).
	legCheck bool
	// scratch is the reusable Transition TransitionScratch hands out.
	scratch reward.Transition
}

// Start begins an episode at the given item (state s_1 of Algorithm 1).
// The start item joins the plan and seeds T_current; no reward attaches to
// it because rewards belong to transitions.
func (e *Env) Start(start int) (*Episode, error) {
	n := e.catalog.Len()
	if start < 0 || start >= n {
		return nil, fmt.Errorf("mdp: start item %d out of range [0,%d)", start, n)
	}
	ep := &Episode{
		env:       e,
		seq:       make([]int, 0, e.hard.Length()+1),
		seqTypes:  make([]item.Type, 0, e.hard.Length()+1),
		positions: make([]int32, n),
		current:   bitset.New(e.catalog.Vocabulary().Len()),
	}
	// chosen and prereqOK share one allocation; full slice caps keep an
	// append on one from clobbering the other.
	flags := make([]bool, 2*n)
	ep.chosen = flags[:n:n]
	ep.prereqOK = flags[n:]
	for i := range ep.positions {
		ep.positions[i] = -1
	}
	copy(ep.prereqOK, e.prereqInit)
	ep.admit(start)
	return ep, nil
}

// AcquireEpisode returns a ready episode starting at start, reusing a
// pooled one (via Reset) when available. Serve-time walks that extract
// their result with Sequence — which copies — pair this with
// ReleaseEpisode so the steady-state plan path allocates no per-request
// episode state.
func (e *Env) AcquireEpisode(start int) (*Episode, error) {
	if ep, ok := e.epPool.Get().(*Episode); ok && ep != nil {
		if err := ep.Reset(start); err != nil {
			e.epPool.Put(ep)
			return nil, err
		}
		return ep, nil
	}
	return e.Start(start)
}

// ReleaseEpisode returns an episode to the Env's pool. The caller must
// not retain the episode or any view into it (Sequence/Types/Coverage
// return copies and are safe). Episodes from a different Env are
// dropped: their buffers are sized for the wrong catalog.
func (e *Env) ReleaseEpisode(ep *Episode) {
	if ep == nil || ep.env != e {
		return
	}
	e.epPool.Put(ep)
}

// Reset rewinds the episode to a fresh trajectory starting at start,
// reusing every internal buffer. Training loops that run thousands of
// episodes against one Env call this instead of Env.Start so the steady
// state allocates nothing per episode.
//
// The rewind costs O(plan + dependents), not O(catalog): admit is the
// only writer of positions, chosen, prereqOK and T_current, and it
// writes them only for the items in seq, the prerequisite dependents of
// those items and those items' topics, so undoing exactly those entries
// restores what Env.Start builds. T_current is the union of the items'
// topics, so clearing each item's topics empties it, visiting only the
// words they set rather than the whole vocabulary. That holds for an
// episode abandoned mid-walk too.
func (ep *Episode) Reset(start int) error {
	if start < 0 || start >= len(ep.chosen) {
		return fmt.Errorf("mdp: start item %d out of range [0,%d)", start, len(ep.chosen))
	}
	e := ep.env
	for _, i := range ep.seq {
		ep.positions[i] = -1
		ep.chosen[i] = false
		ep.current.DifferenceInPlace(e.facts[i].topics)
		for _, d := range e.prereqs.Dependents(i) {
			ep.prereqOK[d] = e.prereqInit[d]
		}
	}
	ep.seq = ep.seq[:0]
	ep.seqTypes = ep.seqTypes[:0]
	ep.credits, ep.distance = 0, 0
	ep.admit(start)
	return nil
}

// admit appends an item to the trajectory and updates the derived state.
func (ep *Episode) admit(idx int) {
	f := &ep.env.facts[idx]
	p := len(ep.seq) // the new item's position
	if p > 0 {
		ep.distance += ep.env.Dist(ep.seq[p-1], idx)
	}
	ep.positions[idx] = int32(p)
	ep.seq = append(ep.seq, idx)
	ep.seqTypes = append(ep.seqTypes, f.typ)
	ep.current.UnionInPlace(f.topics)
	ep.credits += f.credits
	ep.chosen[idx] = true
	ep.themeBlock = item.NoCategory
	if ep.env.hard.ThemeGap {
		ep.themeBlock = f.category
	}
	if d := ep.env.hard.MaxDistanceKm; d > 0 {
		ep.legCheck = ep.distance+ep.env.legMax > d
	}

	// Advance the incremental prerequisite cache to the new frontier
	// position p+1. Between frontiers p and p+1 exactly one placement
	// newly satisfies gap-distance: the item at position q = p+1-gapStep
	// (for gap ≤ 1 that is the item just admitted). Only its dependents
	// can flip, and only from false to true.
	if q := p + 1 - ep.env.gapStep; q >= 0 {
		for _, d := range ep.env.prereqs.Dependents(ep.seq[q]) {
			if !ep.prereqOK[d] {
				ep.prereqOK[d] = ep.env.prereqs.Eval(int(d), p+1, ep.positions, ep.env.hard.Gap)
			}
		}
	}

	// Rebuild the candidate type buffer once per step; TransitionScratch
	// then only writes the final slot per candidate.
	n := len(ep.seqTypes)
	if cap(ep.candTypes) < n+1 {
		ep.candTypes = make([]item.Type, n+1, 2*(n+1))
	}
	ep.candTypes = ep.candTypes[:n+1]
	copy(ep.candTypes, ep.seqTypes)
	for t := range ep.simByType {
		ep.candTypes[n] = item.Type(t)
		ep.simByType[t] = ep.env.reward.Similarity(ep.candTypes)
	}
}

// Len returns the number of items in the trajectory so far.
func (ep *Episode) Len() int { return len(ep.seq) }

// Sequence returns a copy of the item indices chosen so far.
func (ep *Episode) Sequence() []int { return append([]int(nil), ep.seq...) }

// Types returns a copy of the type sequence chosen so far.
func (ep *Episode) Types() []item.Type { return append([]item.Type(nil), ep.seqTypes...) }

// CountType returns how many of the items chosen so far have type t,
// without copying the type sequence as Types does.
func (ep *Episode) CountType(t item.Type) int {
	n := 0
	for _, x := range ep.seqTypes {
		if x == t {
			n++
		}
	}
	return n
}

// Credits returns the credits spent so far.
func (ep *Episode) Credits() float64 { return ep.credits }

// Distance returns the path length walked so far in kilometers.
func (ep *Episode) Distance() float64 { return ep.distance }

// Coverage returns a copy of T_current.
func (ep *Episode) Coverage() bitset.Set { return ep.current.Clone() }

// Last returns the index of the current state's item (the last chosen).
func (ep *Episode) Last() int { return ep.seq[len(ep.seq)-1] }

// Done reports whether the trajectory budget is exhausted.
func (ep *Episode) Done() bool {
	return ep.env.budget.Done(ep.credits, len(ep.seq))
}

// CanStep reports whether item idx may be added: not yet chosen, within
// the trajectory budget and, for trips, within the distance threshold d.
// The leg is looked up only while the threshold can bind (legCheck).
func (ep *Episode) CanStep(idx int) bool {
	if idx < 0 || idx >= len(ep.chosen) || ep.chosen[idx] {
		return false
	}
	if !ep.env.budget.Allows(ep.credits, len(ep.seq), ep.env.facts[idx].credits) {
		return false
	}
	if ep.legCheck && ep.distance+ep.env.Dist(ep.Last(), idx) > ep.env.hard.MaxDistanceKm {
		return false
	}
	return true
}

// AppendCandidates appends every item CanStep admits, in catalog order,
// to buf and returns the extended slice. Hot loops pass buf[:0] of a
// retained slice to reuse one allocation across steps; Candidates is the
// allocating convenience form.
func (ep *Episode) AppendCandidates(buf []int) []int {
	for idx := range ep.chosen {
		if ep.CanStep(idx) {
			buf = append(buf, idx)
		}
	}
	return buf
}

// Candidates returns every item CanStep admits, in catalog order.
func (ep *Episode) Candidates() []int { return ep.AppendCandidates(nil) }

// TransitionScratch computes the Equation 2 facts for adding item idx
// without mutating the episode and without allocating. The returned
// Transition aliases episode-owned scratch buffers (SeqTypes in
// particular) and is only valid until the next TransitionScratch,
// Transition or Step call on the same episode; it must not be retained
// or shared across goroutines. Loops that need only the reward call
// Reward, which builds no Transition; Transition returns a stable copy.
// Callers should ensure CanStep(idx).
func (ep *Episode) TransitionScratch(idx int) *reward.Transition {
	f := &ep.env.facts[idx]
	ep.candTypes[len(ep.seqTypes)] = f.typ
	ep.scratch = reward.Transition{
		SeqTypes:     ep.candTypes,
		CoverageGain: ep.coverageGain(f),
		IdealSize:    ep.env.idealSize,
		PrereqOK:     ep.prereqOK[idx],
		ThemeOK:      ep.themeOK(f),
		Type:         f.typ,
		Category:     f.category,
		Popularity:   f.popularity,
	}
	return &ep.scratch
}

// Transition computes the Equation 2 facts for adding item idx without
// mutating the episode. Unlike TransitionScratch, the result owns its
// memory and stays valid indefinitely. Callers should ensure CanStep(idx).
func (ep *Episode) Transition(idx int) reward.Transition {
	tr := *ep.TransitionScratch(idx)
	tr.SeqTypes = append([]item.Type(nil), tr.SeqTypes...)
	return tr
}

// coverageGain is |T_ideal ∩ (T^m \ T_current)| = |(T^m ∩ T_ideal) \
// T_current|, with the intersection precomputed per item in NewEnv.
func (ep *Episode) coverageGain(f *itemFacts) int {
	return bitset.CountDifference(&f.idealTopics, &ep.current)
}

// themeOK reports the trip theme-gap rule for a candidate: it may not
// repeat the last item's category.
func (ep *Episode) themeOK(f *itemFacts) bool {
	return f.category == item.NoCategory || f.category != ep.themeBlock
}

// Reward returns R(s_i, e, s_{i+1}) for adding item idx, without stepping,
// bit for bit what env.RewardConfig().Reward(ep.Transition(idx)) returns.
// It builds no Transition: it reads the r2 gate (Eq. 4) first and
// counts the coverage gain for r1 (Eq. 3) only when r2 is open, returns
// 0 when θ = 0 under the multiplicative gate, and otherwise combines θ
// with the similarity term admit scored for the candidate's type. It
// allocates nothing.
func (ep *Episode) Reward(idx int) float64 {
	f := &ep.env.facts[idx]
	rw := &ep.env.reward
	theta := 0.0
	if ep.prereqOK[idx] && ep.themeOK(f) {
		theta = rw.R1(ep.coverageGain(f), ep.env.idealSize)
	}
	if theta == 0 && !rw.SoftGate {
		return 0
	}
	return rw.Combine(theta, ep.simByType[f.typ], f.typ, f.category, f.popularity)
}

// RewardLevels appends to dst, for every reward group g in order, the
// group's level at this step: the reward, bit for bit, of each of its
// items whose θ gate is open. Under the multiplicative gate an open item
// scores Combine(1, sim(type), …) and a closed one 0, so a step's
// rewards take only these values and 0. ok is false under SoftGate,
// where a closed item's reward is not 0; dst is then returned as given.
func (ep *Episode) RewardLevels(dst []float64) (levels []float64, ok bool) {
	e := ep.env
	rw := &e.reward
	if rw.SoftGate {
		return dst, false
	}
	for g := 0; g+1 < len(e.memberStart); g++ {
		f := &e.facts[e.members[e.memberStart[g]]] // the group's first member
		dst = append(dst, rw.Combine(1, ep.simByType[f.typ], f.typ, f.category, f.popularity))
	}
	return dst, true
}

// Step adds item idx to the trajectory and returns its reward. It panics
// if the item was already chosen; budget checks are the caller's job via
// CanStep so learners can deliberately explore over-budget actions if they
// wish (the environment still scores them).
func (ep *Episode) Step(idx int) float64 {
	if idx < 0 || idx >= len(ep.chosen) {
		panic(fmt.Sprintf("mdp: step index %d out of range", idx))
	}
	if ep.chosen[idx] {
		panic(fmt.Sprintf("mdp: item %d already chosen", idx))
	}
	r := ep.Reward(idx)
	ep.admit(idx)
	return r
}
