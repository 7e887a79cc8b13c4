package sarsa

// Equivalence property: the serving walk, which reads the policy's Q
// table through qtable.Reader with a reused tie buffer, must return
// sequences bit-identical to the reference walk that answers every
// arg-max with the dense table's allocating masked scan — across guided
// and unguided modes, trained and adversarial Q tables, and both table
// representations (a dense table and its sparse-backed copy).

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/rlplanner/rlplanner/internal/fixture"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/qtable"
	"github.com/rlplanner/rlplanner/internal/reward"
	"github.com/rlplanner/rlplanner/internal/seqsim"
)

// referenceNextAction is nextAction with the same tier structure and
// every arg-max answered by the dense table's ArgMaxTies.
func referenceNextAction(p *Policy, env *mdp.Env, ep *mdp.Episode, guided bool, exclude func(int) bool) (int, bool) {
	s := ep.Last()
	allowed := func(a int) bool {
		return ep.CanStep(a) && (exclude == nil || !exclude(a))
	}
	argmax := func(mask func(int) bool) (int, bool) {
		ties := p.Q.ArgMaxTies(s, mask)
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
		var f guidedFilter
		f.reset(env, ep)
		typeOK := f.allows
		if e, ok := bestRewardThenQ(ep, qView{t: p.Q}, s, func(a int) bool {
			return allowed(a) && typeOK(a)
		}, &walkScratch{}); ok {
			return e, true
		}
		if e, ok := argmax(func(a int) bool {
			if !allowed(a) || !typeOK(a) {
				return false
			}
			tr := ep.TransitionScratch(a)
			return tr.PrereqOK && tr.ThemeOK
		}); ok {
			return e, true
		}
		if e, ok := argmax(func(a int) bool {
			return allowed(a) && typeOK(a)
		}); ok {
			return e, true
		}
	}
	return argmax(allowed)
}

// referenceRollout walks referenceNextAction to completion.
func referenceRollout(t *testing.T, p *Policy, env *mdp.Env, start int, guided bool) []int {
	t.Helper()
	ep, err := env.Start(start)
	if err != nil {
		t.Fatal(err)
	}
	for !ep.Done() {
		e, ok := referenceNextAction(p, env, ep, guided, nil)
		if !ok {
			break
		}
		ep.Step(e)
	}
	return ep.Sequence()
}

func walkCourseEnv(t *testing.T) *mdp.Env {
	t.Helper()
	rw := reward.Config{
		Delta:    0.6,
		Beta:     0.4,
		Epsilon:  0.0025,
		Weights:  reward.Weights{Primary: 0.6, Secondary: 0.4},
		Sim:      seqsim.Average,
		Template: fixture.CourseTemplate(),
	}
	env, err := mdp.NewEnv(fixture.Courses(), fixture.CourseHard(), fixture.CourseSoft(),
		rw, mdp.CountBudget{H: 6})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func walkTripEnv(t *testing.T) *mdp.Env {
	t.Helper()
	env, err := mdp.NewEnv(fixture.Trip(), fixture.TripHard(), fixture.TripSoft(),
		reward.DefaultTripConfig(fixture.TripTemplate()), mdp.TimeBudget{Hours: 6, MaxItems: 5})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// randomPolicyTable fills a dense table with values drawn from a small
// cluster set so exact Q ties — the risky tie-break path — occur on
// nearly every step.
func randomPolicyTable(rng *rand.Rand, n int) *qtable.Table {
	q := qtable.New(n)
	vals := []float64{-1, 0, 0.25, 0.25, 0.5, 1, 1}
	for s := 0; s < n; s++ {
		for e := 0; e < n; e++ {
			if rng.Float64() < 0.35 {
				continue // leave zeros for sparse-equivalence
			}
			q.Set(s, e, vals[rng.Intn(len(vals))])
		}
	}
	return q
}

// sparseCopy mirrors a dense table into the sparse-backed representation
// catalogs above the dense threshold train into.
func sparseCopy(q *qtable.Table) *qtable.Table {
	sp := qtable.NewWithDenseMax(q.Size(), 1)
	q.EachStored(sp.Set)
	return sp
}

// TestCompiledRolloutMatchesReference is the bit-identical property:
// for every environment, Q source, representation, start item and
// mode, the serving walk and the masked-ArgMax reference produce the
// same sequence.
func TestCompiledRolloutMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, envCase := range []struct {
		name string
		env  *mdp.Env
	}{
		{"course", walkCourseEnv(t)},
		{"trip", walkTripEnv(t)},
	} {
		env := envCase.env
		n := env.NumItems()

		// Q sources: trained policies from both TD rules plus adversarial
		// random tables saturated with exact ties.
		tables := map[string]*qtable.Table{}
		for _, alg := range []Algorithm{SARSA, QLearning} {
			cfg := Config{Episodes: 80, Alpha: 0.8, Gamma: 0.9,
				Start: RandomStart, Seed: 7, Algorithm: alg}
			res, err := Learn(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tables["trained-"+alg.String()] = res.Policy.Q
		}
		for i := 0; i < 4; i++ {
			tables["random-"+string(rune('a'+i))] = randomPolicyTable(rng, n)
		}

		for qName, q := range tables {
			ref := &Policy{Q: q}
			variants := map[string]*Policy{
				"dense":  {Q: q},
				"sparse": {Q: sparseCopy(q)},
			}
			for vName, pol := range variants {
				for start := 0; start < n; start++ {
					for _, guided := range []bool{false, true} {
						want := referenceRollout(t, ref, env, start, guided)
						var got []int
						var err error
						if guided {
							got, err = pol.RecommendGuided(env, start)
						} else {
							got, err = pol.Recommend(env, start)
						}
						if err != nil {
							t.Fatalf("%s/%s/%s start %d guided=%v: %v",
								envCase.name, qName, vName, start, guided, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s/%s start %d guided=%v: serving walk %v, reference %v",
								envCase.name, qName, vName, start, guided, got, want)
						}
					}
				}
			}
		}
	}
}

// TestNextGuidedMatchesReference drives the interactive-session entry
// point with exclusions against the reference step chooser.
func TestNextGuidedMatchesReference(t *testing.T) {
	env := walkCourseEnv(t)
	n := env.NumItems()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		q := randomPolicyTable(rng, n)
		pol := &Policy{Q: q}
		excluded := map[int]bool{rng.Intn(n): true, rng.Intn(n): true}
		exclude := func(a int) bool { return excluded[a] }

		ep, err := env.Start(rng.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		refEp, err := env.Start(ep.Last())
		if err != nil {
			t.Fatal(err)
		}
		for !ep.Done() {
			got, gotOK := pol.NextGuided(env, ep, exclude)
			want, wantOK := referenceNextAction(pol, env, refEp, true, exclude)
			if got != want || gotOK != wantOK {
				t.Fatalf("trial %d: NextGuided = (%d,%v), reference (%d,%v) at %v",
					trial, got, gotOK, want, wantOK, ep.Sequence())
			}
			if !gotOK {
				break
			}
			ep.Step(got)
			refEp.Step(want)
		}
	}
}

// TestConcurrentWalksMatchSequential walks one dense and one
// sparse-backed policy from several goroutines at once — every start,
// guided and unguided, and the guided walk through a private overlay
// per goroutine that carries feedback — and requires every plan to
// equal the sequential walk's. Serving shares one frozen Q table
// across all requests, so concurrent walks read the same rows (the
// sparse table's open-addressed probes included); run it with -race.
func TestConcurrentWalksMatchSequential(t *testing.T) {
	const goroutines = 8
	env := walkTripEnv(t)
	n := env.NumItems()
	res, err := Learn(env, Config{Episodes: 80, Alpha: 0.8, Gamma: 0.9,
		Start: RandomStart, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	policies := []*Policy{
		res.Policy,
		{Q: sparseCopy(res.Policy.Q)},
	}
	if !policies[0].Q.IsDense() || policies[1].Q.IsDense() {
		t.Fatal("want one dense and one sparse-backed policy")
	}
	// walks serves goroutine g's requests in a fixed order: for each
	// policy and start, the unguided, guided and overlay walks. The
	// overlay carries seeded feedback nudges, built per call so no two
	// goroutines share one.
	walks := func(g int) ([][]int, error) {
		var out [][]int
		for _, p := range policies {
			o := qtable.NewOverlay(p.Q, 0)
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2*n; i++ {
				o.Bump(rng.Intn(n), rng.Intn(n), 4*rng.Float64()-2)
			}
			for start := 0; start < n; start++ {
				for _, walk := range []func() ([]int, error){
					func() ([]int, error) { return p.Recommend(env, start) },
					func() ([]int, error) { return p.RecommendGuided(env, start) },
					func() ([]int, error) { return p.RecommendGuidedOver(env, start, o) },
				} {
					seq, err := walk()
					if err != nil {
						return nil, err
					}
					out = append(out, seq)
				}
			}
		}
		return out, nil
	}
	want := make([][][]int, goroutines)
	for g := range want {
		if want[g], err = walks(g); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][][]int, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = walks(g)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(got[g], want[g]) {
			t.Fatalf("goroutine %d: concurrent walks differ from the sequential ones", g)
		}
	}
}

// TestEpisodePoolReuse pins the pool contract: a released episode is
// handed back reset, and an episode from a different environment is
// never pooled.
func TestEpisodePoolReuse(t *testing.T) {
	env := walkCourseEnv(t)
	ep, err := env.AcquireEpisode(0)
	if err != nil {
		t.Fatal(err)
	}
	ep.Step(ep.Candidates()[0])
	env.ReleaseEpisode(ep)

	ep2, err := env.AcquireEpisode(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ep2.Sequence(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("pooled episode not reset: sequence %v", got)
	}

	other := walkTripEnv(t)
	otherEp, err := other.AcquireEpisode(0)
	if err != nil {
		t.Fatal(err)
	}
	env.ReleaseEpisode(otherEp) // must be dropped, not pooled
	ep3, err := env.AcquireEpisode(2)
	if err != nil {
		t.Fatal(err)
	}
	if ep3 == otherEp {
		t.Fatal("episode from another environment entered the pool")
	}
}
