package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/rlplanner/rlplanner/internal/bitset"
	"github.com/rlplanner/rlplanner/internal/constraints"
	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/eval"
	"github.com/rlplanner/rlplanner/internal/item"
	"github.com/rlplanner/rlplanner/internal/mdp"
	"github.com/rlplanner/rlplanner/internal/seqsim"
	"github.com/rlplanner/rlplanner/internal/topics"
)

// TestEnvCacheSingleflightBuildsOnce hammers one cold cache key from
// many goroutines and requires exactly one build — the singleflight
// property the serving path depends on. Run under -race this also
// checks the cache's synchronization.
func TestEnvCacheSingleflightBuildsOnce(t *testing.T) {
	inst := univ.Univ1DSCT()
	const key = "test|envcache-singleflight-hammer"
	t.Cleanup(func() { envs.Remove(key) })

	var builds atomic.Int32
	const goroutines = 32
	got := make([]*mdp.Env, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			env, _, err := envs.GetOrTrain(context.Background(), key, func() (*mdp.Env, error) {
				builds.Add(1)
				return core.BuildEnv(inst, core.Options{})
			})
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = env
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("cold key built %d times under %d concurrent requests, want 1", n, goroutines)
	}
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d received a different environment than the leader", g)
		}
	}
}

// TestEnvForConcurrentMixedInstances drives EnvFor concurrently with a
// mix of instances and option sets, the access pattern of interleaved
// plan and batch requests. Every (instance, options) pair must resolve
// to one shared environment, and distinct pairs must never alias.
func TestEnvForConcurrentMixedInstances(t *testing.T) {
	type cfg struct {
		name string
		fn   func() (*mdp.Env, error)
	}
	univ1, univ2 := univ.Univ1DSCT(), univ.Univ2DS()
	tuned := core.Options{Delta: 0.7, Beta: 0.3}
	cfgs := []cfg{
		{"univ1-default", func() (*mdp.Env, error) { return EnvFor(context.Background(), univ1, core.Options{}) }},
		{"univ1-tuned", func() (*mdp.Env, error) { return EnvFor(context.Background(), univ1, tuned) }},
		{"univ2-default", func() (*mdp.Env, error) { return EnvFor(context.Background(), univ2, core.Options{}) }},
	}

	const perCfg = 16
	got := make([][]*mdp.Env, len(cfgs))
	var wg sync.WaitGroup
	for ci := range cfgs {
		got[ci] = make([]*mdp.Env, perCfg)
		for r := 0; r < perCfg; r++ {
			wg.Add(1)
			go func(ci, r int) {
				defer wg.Done()
				env, err := cfgs[ci].fn()
				if err != nil {
					t.Errorf("%s: %v", cfgs[ci].name, err)
					return
				}
				got[ci][r] = env
			}(ci, r)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for ci := range cfgs {
		for r := 1; r < perCfg; r++ {
			if got[ci][r] != got[ci][0] {
				t.Fatalf("%s: requests received distinct environments", cfgs[ci].name)
			}
		}
	}
	for a := 0; a < len(cfgs); a++ {
		for b := a + 1; b < len(cfgs); b++ {
			if got[a][0] == got[b][0] {
				t.Fatalf("%s and %s alias one environment", cfgs[a].name, cfgs[b].name)
			}
		}
	}
}

// TestEnvCacheStatsCount pins the counting rule: a cold EnvFor records
// a miss, a warm one a hit.
func TestEnvCacheStatsCount(t *testing.T) {
	inst := univ.Univ1DSCT()
	opts := core.Options{Delta: 0.55, Beta: 0.45} // unlikely to be warm from other tests
	before := EnvCacheStats()
	if _, err := EnvFor(context.Background(), inst, opts); err != nil {
		t.Fatal(err)
	}
	mid := EnvCacheStats()
	if mid.Misses != before.Misses+1 {
		t.Fatalf("cold lookup: misses %d -> %d, want +1", before.Misses, mid.Misses)
	}
	if _, err := EnvFor(context.Background(), inst, opts); err != nil {
		t.Fatal(err)
	}
	after := EnvCacheStats()
	if after.Hits != mid.Hits+1 || after.Misses != mid.Misses {
		t.Fatalf("warm lookup: hits %d -> %d misses %d -> %d, want one hit and no miss",
			mid.Hits, after.Hits, mid.Misses, after.Misses)
	}
}

// TestTrainKeepsRequestedDistance: the environment cache key covers the
// trip distance threshold d, so a policy trained on Paris at d = 2 km
// after one at d = 5 km, or in the reverse order, holds the d it was
// asked for — not the d of whichever environment the process built
// first.
func TestTrainKeepsRequestedDistance(t *testing.T) {
	inst := trip.Paris().Instance
	for _, order := range [][]float64{{5, 2}, {2, 5}} {
		for _, d := range order {
			pol, err := Train(context.Background(), "sarsa", inst, core.Options{Episodes: 50, Seed: 1, MaxDistanceKm: d})
			if err != nil {
				t.Fatal(err)
			}
			if got := pol.Hard().MaxDistanceKm; got != d {
				t.Errorf("order %v: trained at d = %g, policy holds d = %g", order, d, got)
			}
		}
	}
}

// lineTrip is a six-POI trip catalog, a to f, laid north along one
// meridian spacing degrees of latitude apart. Instances built with
// different spacings differ only in their coordinates.
func lineTrip(t *testing.T, name string, spacing float64) *dataset.Instance {
	t.Helper()
	const n = 6
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("theme-%d", i)
	}
	vocab, err := topics.NewVocabulary(names)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]item.Item, n)
	for i := range items {
		ty := item.Secondary
		if i < 2 {
			ty = item.Primary
		}
		items[i] = item.Item{
			ID: string(rune('a' + i)), Name: fmt.Sprintf("POI %c", 'a'+i), Type: ty, Credits: 1,
			Topics: vocab.MustVector(names[i]), Category: i,
			Lat: 48.85 + spacing*float64(i), Lon: 2.35, Popularity: 3,
		}
	}
	catalog, err := item.NewCatalog(vocab, items)
	if err != nil {
		t.Fatal(err)
	}
	ideal := bitset.New(n)
	for i := 0; i < n; i++ {
		ideal.Set(i)
	}
	inst := &dataset.Instance{
		Name:    name,
		Kind:    dataset.TripPlanning,
		Catalog: catalog,
		Hard: constraints.Hard{
			Credits: 6, CreditMode: constraints.MaxCredits, Gap: 1, MaxDistanceKm: 5,
		},
		Soft:         constraints.Soft{Ideal: ideal, Template: dataset.MakeTemplate(2, 3)},
		DefaultStart: "a",
		Defaults: dataset.Defaults{
			Episodes: 500, Alpha: 0.95, Gamma: 0.75, Epsilon: 0.0025,
			Delta: 0.6, Beta: 0.4, W1: 0.6, W2: 0.4, Sim: seqsim.Average,
		},
		GoldScore: 5,
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestEnvCacheSeparatesCoordinates trains two uploads that differ only
// in coordinates — "near", POIs 0.22 km apart, and "far", 2.2 km apart —
// at d = 3 km. Whether or not "near" was trained first, "far" must plan
// what it plans trained alone (the cache emptied before each run, as in
// a fresh process), and its plan must satisfy P_hard on its own
// coordinates. A catalog with equal content under another name must
// still share its environment.
func TestEnvCacheSeparatesCoordinates(t *testing.T) {
	clear := func() {
		var keys []string
		envs.Range(func(k string, _ *mdp.Env) { keys = append(keys, k) })
		for _, k := range keys {
			envs.Remove(k)
		}
	}
	t.Cleanup(clear)
	near, far := lineTrip(t, "near", 0.002), lineTrip(t, "far", 0.02)
	opts := core.Options{MaxDistanceKm: 3, Seed: 1}
	plan := func(inst *dataset.Instance) ([]int, constraints.Hard) {
		t.Helper()
		pol, err := Train(context.Background(), "sarsa", inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := pol.Recommend(DefaultStart)
		if err != nil {
			t.Fatal(err)
		}
		return seq, pol.Hard()
	}

	clear()
	alone, hard := plan(far)
	clear()
	plan(near)
	after, _ := plan(far)
	ids := func(seq []int) []string { return far.Catalog.SequenceIDs(seq) }
	if !reflect.DeepEqual(after, alone) {
		t.Fatalf(`"far" after "near" plans %v, trained alone %v`, ids(after), ids(alone))
	}
	if v := eval.EvaluateWith(far, hard, after).Violations; len(v) > 0 {
		t.Fatalf(`"far" plan %v at d = 3 km violates %v`, ids(after), v)
	}

	same := lineTrip(t, "far, uploaded again", 0.02)
	a, err := EnvFor(context.Background(), far, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EnvFor(context.Background(), same, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("two instances with equal content built two environments")
	}
}
