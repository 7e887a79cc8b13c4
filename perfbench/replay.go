package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/rlplanner/rlplanner"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/synth"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/engine"
	"github.com/rlplanner/rlplanner/internal/eval"
	"github.com/rlplanner/rlplanner/internal/feedback"
	"github.com/rlplanner/rlplanner/internal/geo"
	"github.com/rlplanner/rlplanner/internal/qtable"
	"github.com/rlplanner/rlplanner/internal/repo"
)

// deriveMaxDistance is the server's auto-derive bound: the nearest
// cached policy further than this is not a warm-start source.
const deriveMaxDistance = 0.3

const (
	phaseSetup = iota
	phaseTimed
)

// opRecord is what the per-layer metrics need to know about one traced
// operation.
type opRecord struct {
	kind   opKind
	phase  int
	cold   bool // the operation trained its policy
	ok     bool
	serve  int // handler span id
	walks  int
	person int // personalized plans among the walks
}

// counters are the process-global counters the handler moves. Traced
// runs drive one client, so their change across a handler call is that
// call's own.
type counters struct {
	envHits, envMisses, trainRuns, trainEpisodes, warmStarts, fallbacks float64
}

func readCounters() counters {
	ec, ts := engine.EnvCacheStats(), engine.TrainStats()
	return counters{float64(ec.Hits), float64(ec.Misses), float64(ts.Runs), float64(ts.Episodes),
		float64(ts.WarmStarts), float64(geo.FallbackTotal())}
}

// replayPolicy is a policy trained by the replay: the engine artifact
// for the layer calls and its library form for the facade calls.
type replayPolicy struct {
	eng engine.Policy
	fac *rlplanner.Policy
	in  *dataset.Instance
}

// userOverlay mirrors one user's server-side overlay, in its library and
// its engine form, for timing overlay reads. The mirror cannot see the
// server evict an overlay and start a new one at the user's next
// feedback, so personalized plans are timed, not compared.
type userOverlay struct {
	fac *rlplanner.Overlay
	q   *qtable.Overlay
}

// replayer repeats each traced operation through the public calls of
// the layers the handler went through, with the same options, so every
// replayed plan must equal the served one.
type replayer struct {
	b      *bench
	t      *tracer
	store  *engine.Store[*replayPolicy]
	inners map[string]*dataset.Instance
	repo   *repo.Repo
	users  map[int]*userOverlay

	ops        []opRecord
	handler    counters // summed over handler calls
	timedFalls float64  // geo fallbacks of timed plan handler calls
	timedWalks int

	trainEpisodes int
	trainTime     time.Duration
	rewardCalls   int
	rewardTime    time.Duration
	walkSteps     int
	walks         int
	cands         []int
	sink          float64

	mismatch error // first replay that failed or differs from the served plan
	exports  int   // artifact exports, which count as policy cache hits
}

func newReplayer(b *bench, repoDir string) (*replayer, error) {
	r := &replayer{
		b:      b,
		t:      newTracer(),
		store:  engine.NewStore[*replayPolicy](0),
		inners: make(map[string]*dataset.Instance),
		users:  make(map[int]*userOverlay),
	}
	for _, in := range append(append(univ.Univ1All(), univ.Univ2DS()), trip.Instances()...) {
		r.inners[in.Name] = in
	}
	if b.catalog != nil {
		in, err := synth.Generate(synth.Params{Name: catalogKey.inst, Items: catalogSize, Geo: true, Seed: catalogSize})
		if err != nil {
			return nil, err
		}
		r.inners[in.Name] = in
	}
	// The layer calls must see the catalog the server holds.
	for name, in := range r.inners {
		fac, err := b.instance(name)
		if err != nil {
			return nil, err
		}
		if fp := engine.Fingerprint(in); fp != fac.Fingerprint() {
			return nil, fmt.Errorf("instance %s: engine fingerprint %s differs from the served one %s", name, fp, fac.Fingerprint())
		}
	}
	var err error
	r.repo, err = repo.Open(repoDir, repo.Options{})
	return r, err
}

// do serves one operation inside a traced operation span, then replays
// it. The handler's span is live; the replayed calls are laid onto it.
func (r *replayer) do(c *conn, o *op, phase int) (int, []byte) {
	id := len(r.ops) + 1
	root := r.t.open(id, 0, "op")
	before := readCounters()
	start := r.t.now()
	code, body, _ := c.exec(o)
	end := r.t.now()
	after := readCounters()
	r.handler.envHits += after.envHits - before.envHits
	r.handler.envMisses += after.envMisses - before.envMisses
	r.handler.trainRuns += after.trainRuns - before.trainRuns
	r.handler.trainEpisodes += after.trainEpisodes - before.trainEpisodes
	rec := opRecord{kind: o.kind, phase: phase, ok: code/100 == 2, serve: r.t.record(id, root, "httpapi.serve", start, end)}
	if rec.ok {
		var err error
		derived := after.warmStarts > before.warmStarts
		if rec, err = r.replay(id, root, o, body, rec, derived); err != nil && r.mismatch == nil {
			r.mismatch = fmt.Errorf("%s %s: %w", opPaths[o.kind], o.body, err)
		}
		if phase == phaseTimed && o.kind != opFeedback {
			r.timedFalls += after.fallbacks - before.fallbacks
			r.timedWalks += rec.walks
		}
	}
	r.t.close(root)
	r.ops = append(r.ops, rec)
	return code, body
}

func (r *replayer) replay(id, root int, o *op, body []byte, rec opRecord, derived bool) (opRecord, error) {
	rp, cold, err := r.policy(id, root, rec.serve, o, derived)
	if err != nil {
		return rec, err
	}
	rec.cold = cold
	if o.kind == opFeedback {
		return rec, r.feedback(rec.serve, rp, o)
	}
	served, starts, err := plans(o.kind, body)
	if err != nil {
		return rec, err
	}
	for i, got := range served {
		rec.walks++
		if got.Personalized {
			rec.person++
		}
		if err := r.recommend(id, root, rec.serve, rp, o.user, starts[i], got); err != nil {
			return rec, err
		}
	}
	mirror, err := decodeMirror(o.kind, body)
	if err != nil {
		return rec, err
	}
	var buf bytes.Buffer
	r.t.replay(rec.serve, "httpapi.encode", func() { err = json.NewEncoder(&buf).Encode(mirror) })
	return rec, err
}

// decodeMirror decodes a response into the Go shape the handler encoded.
func decodeMirror(kind opKind, body []byte) (any, error) {
	var v any = new(servedPlan)
	if kind == opBatch {
		v = new(servedBatch)
	}
	return v, json.Unmarshal(body, v)
}

// policy replays the handler's policy lookup: a hit in a benchmark-owned
// store of the same size as the server's, or on a miss the cold path —
// the nearest-source scan, repository lookup, training, compile, artifact
// save and write-through. When the handler warm-started the key, the
// replay times engine.Derive from the nearest source it finds, but
// serves from the server's exported artifact: equidistant sources make
// the server's choice depend on its cache order.
func (r *replayer) policy(id, root, serve int, o *op, derived bool) (*replayPolicy, bool, error) {
	k := o.key
	var rp *replayPolicy
	var ok bool
	r.t.replay(serve, "engine.store_get", func() { rp, ok = r.store.Cached(k.String()) })
	if ok {
		return rp, false, nil
	}
	fac, err := r.b.instance(k.inst)
	if err != nil {
		return nil, true, err
	}
	in := r.inners[k.inst]
	fp := fac.Fingerprint()
	var src *replayPolicy
	best := deriveMaxDistance
	for _, key := range r.store.Keys() {
		cand, ok := r.store.Cached(key)
		if !ok || cand.fac.Fingerprint() == fp {
			continue
		}
		var d float64
		r.t.run(id, root, "transfer.match", func() { d, err = cand.fac.MatchDistance(fac) })
		if err != nil {
			return nil, true, err
		}
		if d <= best {
			src, best = cand, d
		}
	}
	rk := k.String() + "|" + fp
	r.t.run(id, root, "repo.get", func() { r.repo.Get(rk) })
	r.t.run(id, root, "engine.env_build", func() { _, err = core.BuildEnv(in, k.coreOptions()) })
	if err != nil {
		return nil, true, err
	}
	var pol engine.Policy
	train := r.t.replay(serve, "engine.train", func() {
		if derived && src != nil {
			pol, _, err = engine.Derive(context.Background(), src.eng, in, k.coreOptions())
		} else {
			pol, err = engine.Train(context.Background(), "sarsa", in, k.coreOptions())
		}
	})
	if err != nil {
		return nil, true, err
	}
	r.trainEpisodes += engine.Episodes(pol)
	r.trainTime += r.t.span(train).dur()
	vp, ok := pol.(engine.ValuePolicy)
	if !ok {
		return nil, true, fmt.Errorf("engine sarsa returned a %T without action values", pol)
	}
	r.t.replay(train, "qtable.compile", func() {
		if q := vp.Values().Q; q.IsDense() {
			qtable.Compile(q, qtable.DefaultTopK)
		} else {
			qtable.NewTiered(q)
		}
	})
	if derived {
		code, art := call(r.b.h, http.MethodPost, "/api/policies/export", o.body)
		r.exports++
		if code != http.StatusOK {
			return nil, true, fmt.Errorf("export %s: HTTP %d: %s", k, code, art)
		}
		if pol, err = engine.Load(bytes.NewReader(art), in, k.coreOptions()); err != nil {
			return nil, true, err
		}
	}
	var art bytes.Buffer
	r.t.replay(serve, "engine.artifact_save", func() { err = pol.Save(&art) })
	if err != nil {
		return nil, true, err
	}
	put := func() { err = r.repo.Put(rk, art.Bytes()) }
	if r.b.w.policyDir {
		r.t.replay(serve, "repo.put", put)
	} else {
		// The server keeps no repository; the write is timed beside it.
		r.t.run(id, root, "repo.put", put)
	}
	if err != nil {
		return nil, true, err
	}
	lib, err := rlplanner.LoadPolicyArtifact(bytes.NewReader(art.Bytes()), fac, k.options())
	if err != nil {
		return nil, true, err
	}
	rp = &replayPolicy{eng: pol, fac: lib, in: in}
	r.store.Add(k.String(), rp)
	return rp, true, nil
}

// recommend replays one walk: the facade call the handler made, then
// its engine walk and evaluation laid inside it, and the reward scan of
// a greedy rollout along the served plan beside it. The facade's plan
// must equal the served one unless an overlay served it.
func (r *replayer) recommend(id, root, serve int, rp *replayPolicy, user int, start string, got *servedPlan) error {
	uo := r.users[user]
	if user >= 0 && !got.Personalized && uo != nil {
		// The server evicted this user's overlay: it serves the base.
		delete(r.users, user)
		uo = nil
	}
	var plan *rlplanner.Plan
	var err error
	rec := r.t.replay(serve, "rlplanner.recommend", func() {
		if uo != nil {
			plan, err = rp.fac.RecommendWithOverlay(start, uo.fac)
		} else {
			plan, err = rp.fac.Recommend(start)
		}
	})
	if err != nil {
		return err
	}
	from := engine.DefaultStart
	if start != "" {
		idx, ok := rp.in.Catalog.Index(start)
		if !ok {
			return fmt.Errorf("unknown start %q", start)
		}
		from = idx
	}
	var seq []int
	if uo != nil {
		lp, _ := engine.Layered(rp.eng)
		r.t.replay(rec, "sarsa.overlay_walk", func() { seq, err = lp.RecommendOver(from, uo.q) })
	} else {
		r.t.replay(rec, "sarsa.walk", func() { seq, err = rp.eng.Recommend(from) })
	}
	if err != nil {
		return err
	}
	r.walks++
	r.walkSteps += len(seq)
	r.t.replay(rec, "eval.evaluate", func() { eval.EvaluateWith(rp.in, rp.eng.Hard(), seq) })
	r.rollout(id, root, rp, seq)
	if got.Personalized {
		return nil
	}
	return checkPlan(got, plan)
}

// rollout evaluates Episode.Reward for every candidate at each step of
// the served plan: the scan the guided walk makes.
func (r *replayer) rollout(id, root int, rp *replayPolicy, seq []int) {
	vp, ok := rp.eng.(engine.ValuePolicy)
	if !ok || len(seq) == 0 {
		return
	}
	ep, err := vp.Env().Start(seq[0])
	if err != nil {
		return
	}
	calls := 0
	s := r.t.run(id, root, "mdp.reward", func() {
		for _, next := range seq[1:] {
			r.cands = ep.AppendCandidates(r.cands[:0])
			for _, c := range r.cands {
				r.sink += ep.Reward(c)
			}
			calls += len(r.cands)
			if !ep.CanStep(next) {
				return
			}
			ep.Step(next)
		}
	})
	r.rewardCalls += calls
	r.rewardTime += r.t.span(s).dur()
}

// feedback replays a feedback post into the user's mirrored overlay.
func (r *replayer) feedback(serve int, rp *replayPolicy, o *op) error {
	plan := &rlplanner.Plan{}
	seq := make([]int, len(o.items))
	for i, id := range o.items {
		plan.Steps = append(plan.Steps, rlplanner.PlanStep{ID: id})
		seq[i], _ = rp.in.Catalog.Index(id)
	}
	uo := r.users[o.user]
	if uo == nil {
		fac, err := rp.fac.NewOverlay(0)
		if err != nil {
			return err
		}
		lp, _ := engine.Layered(rp.eng)
		uo = &userOverlay{fac: fac, q: qtable.NewOverlay(lp.BaseReader(), 0)}
		r.users[o.user] = uo
	}
	var err error
	r.t.replay(serve, "feedback.observe", func() { _, err = uo.fac.ObserveBinary(plan, o.useful, 0) })
	feedback.ApplyToOverlay(uo.q, seq, feedback.Binary(o.useful), 0)
	return err
}

// layerMetrics reduces the spans and counters to the per-layer metrics.
// base is the untraced plan p50 of the same run; server holds the
// server's /api/metrics after the run; allocs is allocations per
// operation in the untraced part.
func (r *replayer) layerMetrics(base time.Duration, server map[string]float64, allocs float64) map[string]metric {
	kids := r.t.children()
	byName := make(map[string][]float64)
	for _, s := range r.t.spans {
		byName[s.name] = append(byName[s.name], float64(s.dur()))
	}
	// p50 is the median in unit, 0 for a layer the run never reached.
	p50 := func(xs []float64, unit time.Duration) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs) / float64(unit)
	}
	var serve, self, coldSelf []float64
	var plans, person float64
	for _, o := range r.ops {
		if !o.ok || o.kind == opFeedback {
			continue
		}
		s := r.t.span(o.serve)
		st := float64(selfTime(s, kids[o.serve]))
		if o.cold {
			coldSelf = append(coldSelf, st)
		} else {
			self = append(self, st)
		}
		if o.phase == phaseTimed {
			serve = append(serve, float64(s.dur()))
			plans += float64(o.walks)
			person += float64(o.person)
		}
	}
	overhead := 0.0
	if base > 0 && len(serve) > 0 {
		overhead = median(serve)/float64(base) - 1
	}
	hits := server["policy_cache_hits"] - float64(r.exports)
	us, ms, ns := time.Microsecond, time.Millisecond, time.Nanosecond
	return map[string]metric{
		"httpapi.serve_us":               {p50(serve, us), "us"},
		"httpapi.self_us":                {p50(self, us), "us"},
		"httpapi.encode_us":              {p50(byName["httpapi.encode"], us), "us"},
		"httpapi.allocs_per_op":          {allocs, "allocs/op"},
		"httpapi.cold_self_ms":           {p50(coldSelf, ms), "ms"},
		"httpapi.personalized_frac":      {ratio(person, plans), "frac"},
		"httpapi.overlay_users":          {server["overlay_users"], "count"},
		"httpapi.overlay_bytes_per_user": {ratio(server["overlay_bytes"], server["overlay_users"]), "B/user"},
		"httpapi.overlay_evictions":      {server["overlay_evictions"], "count"},
		"engine.policy_hit_ratio":        {ratio(hits, hits+server["policy_cache_misses"]), "frac"},
		"engine.env_hit_ratio":           {ratio(r.handler.envHits, r.handler.envHits+r.handler.envMisses), "frac"},
		"engine.store_get_ns":            {p50(byName["engine.store_get"], ns), "ns"},
		"engine.env_build_ms":            {p50(byName["engine.env_build"], ms), "ms"},
		"engine.train_ms":                {p50(byName["engine.train"], ms), "ms"},
		"engine.artifact_save_ms":        {p50(byName["engine.artifact_save"], ms), "ms"},
		"engine.train_runs":              {r.handler.trainRuns, "count"},
		"engine.train_episodes":          {r.handler.trainEpisodes, "count"},
		"sarsa.walk_us":                  {p50(byName["sarsa.walk"], us), "us"},
		"sarsa.walk_steps":               {ratio(float64(r.walkSteps), float64(r.walks)), "count"},
		"sarsa.overlay_walk_us":          {p50(byName["sarsa.overlay_walk"], us), "us"},
		"sarsa.episodes_per_s":           {ratio(float64(r.trainEpisodes), r.trainTime.Seconds()), "1/s"},
		"rlplanner.recommend_us":         {p50(byName["rlplanner.recommend"], us), "us"},
		"eval.evaluate_us":               {p50(byName["eval.evaluate"], us), "us"},
		"mdp.reward_ns":                  {ratio(float64(r.rewardTime), float64(r.rewardCalls)), "ns"},
		"qtable.compile_ms":              {p50(byName["qtable.compile"], ms), "ms"},
		"geo.dist_fallbacks_per_plan":    {ratio(r.timedFalls, float64(r.timedWalks)), "count"},
		"transfer.match_us":              {p50(byName["transfer.match"], us), "us"},
		"repo.put_ms":                    {p50(byName["repo.put"], ms), "ms"},
		"repo.get_ms":                    {p50(byName["repo.get"], ms), "ms"},
		"repo.writes":                    {server["repo_writes"], "count"},
		"repo.claim_waits":               {server["repo_claim_waits"], "count"},
		"feedback.observe_us":            {p50(byName["feedback.observe"], us), "us"},
		"resilience.fallbacks":           {server["fallbacks"], "count"},
		"resilience.rejections":          {server["rejections"], "count"},
		"resilience.panics":              {server["panics"], "count"},
		"resilience.timeouts":            {server["timeouts"], "count"},
		"trace.overhead_frac":            {overhead, "frac"},
	}
}
