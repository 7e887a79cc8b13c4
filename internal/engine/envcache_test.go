package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset/trip"
	"github.com/rlplanner/rlplanner/internal/dataset/univ"
	"github.com/rlplanner/rlplanner/internal/mdp"
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
