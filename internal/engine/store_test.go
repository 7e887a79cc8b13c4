package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStoreClockEviction pins the CLOCK approximate-LRU contract that
// replaced the exact LRU list: a full store evicts an entry whose
// access bit is clear, and a Cached hit — one atomic store, no lock —
// grants its entry a second chance over untouched neighbours.
func TestStoreClockEviction(t *testing.T) {
	s := NewStore[int](2)
	s.Add("a", 1)
	s.Add("b", 2)
	s.Add("c", 3) // evicts a: neither a nor b was ever read, a is first in ring order
	if _, ok := s.Cached("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if v, ok := s.Cached("b"); !ok || v != 2 {
		t.Fatalf("b = %d, %v", v, ok)
	}
	got := rangeKeys(s)
	sort.Strings(got)
	if want := []string{"b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Range keys = %v, want %v", got, want)
	}
	// b's access bit is set (the hit above); the sweep spends it and
	// evicts the untouched c.
	s.Add("d", 4)
	if _, ok := s.Cached("c"); ok {
		t.Fatal("c should have been evicted: b held an access bit, c did not")
	}
	if _, ok := s.Cached("b"); !ok {
		t.Fatal("b lost despite its access bit")
	}
	if s.Len() != 2 {
		t.Fatalf("Len() = %d", s.Len())
	}
}

// TestStoreCachedHitNoAlloc pins the contention-free hit path's other
// half: a warm Cached read allocates nothing — no list nodes, no
// interface boxing, nothing for the GC to chew on at 6 figures of req/s.
func TestStoreCachedHitNoAlloc(t *testing.T) {
	// Sized well above the key count: shard capacity is enforced per
	// stripe, so a store near its bound could shed a setup key on an
	// unlucky hash skew and turn the warm premise flaky.
	s := NewStore[*int](1024)
	v := 42
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		s.Add(keys[i], &v)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		p, ok := s.Cached(keys[i%len(keys)])
		if !ok || *p != 42 {
			t.Fatal("miss on a warm key")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Cached hit allocates %.1f objects/op, want 0", allocs)
	}
}

// TestStoreShardedBound fills a sharded store (capacity large enough to
// stripe) far past its bound with random-ish keys and verifies the
// global capacity holds and recently inserted keys remain reachable.
func TestStoreShardedBound(t *testing.T) {
	const max = 128 // DefaultStoreSize: stripes into multiple shards
	s := NewStore[int](max)
	if len(s.shards) < 2 {
		t.Fatalf("expected a striped store at max=%d, got %d shard(s)", max, len(s.shards))
	}
	for i := 0; i < 10*max; i++ {
		s.Add(fmt.Sprintf("k%d", i), i)
	}
	if n := s.Len(); n > max {
		t.Fatalf("Len() = %d exceeds the %d bound", n, max)
	}
	// The very last insert can never be the immediate victim of its own
	// shard's sweep.
	if _, ok := s.Cached(fmt.Sprintf("k%d", 10*max-1)); !ok {
		t.Fatal("most recent key missing")
	}
	// Every key the store reports is actually readable.
	for _, k := range rangeKeys(s) {
		if _, ok := s.Cached(k); !ok {
			t.Fatalf("Range visited %q but Cached misses it", k)
		}
	}
}

// rangeKeys collects the keys Range visits.
func rangeKeys[V comparable](s *Store[V]) []string {
	var keys []string
	s.Range(func(key string, _ V) { keys = append(keys, key) })
	return keys
}

func TestStoreAddOverwrites(t *testing.T) {
	s := NewStore[int](2)
	s.Add("a", 1)
	s.Add("a", 9)
	if v, _ := s.Cached("a"); v != 9 {
		t.Fatalf("a = %d, want 9", v)
	}
	if s.Len() != 1 {
		t.Fatalf("Len() = %d", s.Len())
	}
}

// TestStoreSingleflight hammers one cold key from many goroutines:
// exactly one must train, everyone must see its value.
func TestStoreSingleflight(t *testing.T) {
	s := NewStore[int](4)
	var trains int32
	const n = 32
	var wg sync.WaitGroup
	vals := make([]int, n)
	leaders := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, ran, err := s.GetOrTrain(context.Background(), "k", func() (int, error) {
				atomic.AddInt32(&trains, 1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], leaders[i] = v, ran
		}(i)
	}
	wg.Wait()
	// Every goroutine observed the single trained value. More than one
	// trainer can only happen if a follower raced ahead of the leader's
	// registration — which would double-count trains.
	if got := atomic.LoadInt32(&trains); got != 1 {
		t.Fatalf("train ran %d times, want 1", got)
	}
	var nLeaders int
	for i := 0; i < n; i++ {
		if vals[i] != 42 {
			t.Fatalf("goroutine %d saw %d", i, vals[i])
		}
		if leaders[i] {
			nLeaders++
		}
	}
	if nLeaders != 1 {
		t.Fatalf("%d goroutines report having trained, want 1", nLeaders)
	}
}

func TestStoreErrorNotCached(t *testing.T) {
	s := NewStore[int](4)
	boom := errors.New("boom")
	if _, _, err := s.GetOrTrain(context.Background(), "k", func() (int, error) {
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := s.Cached("k"); ok {
		t.Fatal("failed training must not be cached")
	}
	v, ran, err := s.GetOrTrain(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || !ran || v != 7 {
		t.Fatalf("retry = %d, %v, %v", v, ran, err)
	}
}

func TestStoreFollowerHonorsContext(t *testing.T) {
	s := NewStore[int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		s.GetOrTrain(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.GetOrTrain(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
	close(release)
}

// TestStorePanicFreesFollowers pins the leader-panic path: waiting
// followers get an error instead of hanging, and the key stays trainable.
func TestStorePanicFreesFollowers(t *testing.T) {
	s := NewStore[int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		s.GetOrTrain(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("trainer exploded")
		})
	}()
	<-started
	errc := make(chan error, 1)
	go func() {
		// If scheduling delays this goroutine past the leader's cleanup it
		// becomes a fresh leader; the sentinel value below distinguishes
		// the two outcomes.
		v, _, err := s.GetOrTrain(context.Background(), "k", func() (int, error) { return 99, nil })
		if err == nil && v != 99 {
			err = fmt.Errorf("follower got %d without an error", v)
		}
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the follower reach the wait
	close(release)
	if err := <-errc; err == nil {
		t.Log("follower arrived after cleanup and retrained; panic path still verified below")
	} else if !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("follower err = %v, want the aborted-training error", err)
	}
	v, ran, err := s.GetOrTrain(context.Background(), "k", func() (int, error) { return 5, nil })
	if err != nil || !ran || v != 5 {
		t.Fatalf("post-panic retry = %d, %v, %v", v, ran, err)
	}
}

// TestStoreDistinctKeysTrainConcurrently proves per-key isolation: a
// stalled training run on one key does not serialize another key.
func TestStoreDistinctKeysTrainConcurrently(t *testing.T) {
	s := NewStore[int](4)
	aStarted := make(chan struct{})
	aRelease := make(chan struct{})
	go s.GetOrTrain(context.Background(), "a", func() (int, error) {
		close(aStarted)
		<-aRelease
		return 1, nil
	})
	<-aStarted
	v, ran, err := s.GetOrTrain(context.Background(), "b", func() (int, error) { return 2, nil })
	if err != nil || !ran || v != 2 {
		t.Fatalf("b trained under a stalled a: %d, %v, %v", v, ran, err)
	}
	close(aRelease)
}

func TestStoreKeyScaling(t *testing.T) {
	s := NewStore[string](8)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%d", i)
		s.Add(key, key)
	}
	if s.Len() != 8 {
		t.Fatalf("Len() = %d, want the 8-entry bound", s.Len())
	}
	if _, ok := s.Cached("k19"); !ok {
		t.Fatal("most recent key missing")
	}
}

// TestStoreRemove pins the serving layer's malformed-artifact eviction:
// Remove drops a cached value so the next request retrains, absent keys
// are a no-op, and an in-flight training run is unaffected.
func TestStoreRemove(t *testing.T) {
	s := NewStore[int](4)
	s.Add("k", 1)
	s.Remove("k")
	if _, ok := s.Cached("k"); ok {
		t.Fatal("removed key still cached")
	}
	s.Remove("absent") // no-op
	if s.Len() != 0 {
		t.Fatalf("Len() = %d", s.Len())
	}
	v, ran, err := s.GetOrTrain(context.Background(), "k", func() (int, error) { return 2, nil })
	if err != nil || !ran || v != 2 {
		t.Fatalf("retrain after Remove = %d, %v, %v", v, ran, err)
	}

	// Removing a key mid-training must not disturb the in-flight run.
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		v, _, _ := s.GetOrTrain(context.Background(), "live", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		done <- v
	}()
	<-started
	s.Remove("live")
	close(release)
	if v := <-done; v != 7 {
		t.Fatalf("in-flight training returned %d", v)
	}
}

// weight is a cost-store value whose charge its owner can change in
// place, as an overlay grows with feedback.
type weight struct{ n int }

func newWeightStore(budget int) *Store[*weight] {
	return NewCostStore(budget, func(w *weight) int { return w.n })
}

// TestCostStoreEvictsUntouchedFirst: an insert that takes a shard past
// its share evicts untouched entries before any entry a reader used,
// whatever their age.
func TestCostStoreEvictsUntouchedFirst(t *testing.T) {
	s := newWeightStore(10) // one shard
	s.Add("a", &weight{3})
	s.Add("b", &weight{3})
	s.Add("c", &weight{3})
	s.Cached("a")
	s.Cached("c")
	s.Add("d", &weight{3}) // 12 > 10: b is the only untouched entry
	if _, ok := s.Cached("b"); ok {
		t.Fatal("b should have been evicted: it was the one untouched entry")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := s.Cached(k); !ok {
			t.Fatalf("%s lost", k)
		}
	}
	if st := s.Stats(); st.Evictions != 1 || st.Size != 3 || st.Cost != 9 {
		t.Fatalf("stats = %+v, want 1 eviction, 3 entries, cost 9", st)
	}
}

// TestCostStoreRechargeNeverEvictsItself: an entry that grows in place
// and is re-charged evicts other entries until its shard fits again —
// all of them if it alone outgrows the share — but never itself.
func TestCostStoreRechargeNeverEvictsItself(t *testing.T) {
	s := newWeightStore(10)
	a := &weight{2}
	s.Add("a", a)
	s.Add("b", &weight{2})
	s.Add("c", &weight{2})
	s.Cached("b") // a second chance only delays b
	a.n = 7
	if !s.Recharge("a") {
		t.Fatal("Recharge missed a cached key")
	}
	if _, ok := s.Cached("a"); !ok {
		t.Fatal("the re-charged entry was evicted")
	}
	if st := s.Stats(); st.Cost > 10 || st.Cost != 7+2*(st.Size-1) {
		t.Fatalf("after growing to 7: stats = %+v", st)
	}
	a.n = 25 // past the whole budget
	s.Recharge("a")
	if st := s.Stats(); st.Size != 1 || st.Cost != 25 {
		t.Fatalf("after outgrowing the budget: stats = %+v, want only a at cost 25", st)
	}
	if _, ok := s.Cached("a"); !ok {
		t.Fatal("the re-charged entry was evicted")
	}
	if s.Recharge("gone") {
		t.Fatal("Recharge reported an absent key")
	}
}

// TestStoreCompareAndRemove: the guarded remove drops a key only while
// it still holds the value the caller saw.
func TestStoreCompareAndRemove(t *testing.T) {
	s := newWeightStore(10)
	old, cur := &weight{3}, &weight{4}
	s.Add("k", old)
	s.Add("k", cur) // a concurrent request replaced the value
	if s.CompareAndRemove("k", old) {
		t.Fatal("removed a key that no longer holds the stale value")
	}
	if v, ok := s.Cached("k"); !ok || v != cur {
		t.Fatal("the replacement was removed")
	}
	if !s.CompareAndRemove("k", cur) {
		t.Fatal("guarded remove of the current value failed")
	}
	if st := s.Stats(); st.Size != 0 || st.Cost != 0 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want empty with no evictions", st)
	}
	if s.CompareAndRemove("k", cur) {
		t.Fatal("removed an absent key")
	}
}

// TestCostStoreShardedBudget fills a striped cost store far past its
// budget: shares sum to the budget, each shard exceeds its share by at
// most the entry it took last, CacheStats counts every eviction and its
// cost is the sum of the live entries' costs.
func TestCostStoreShardedBudget(t *testing.T) {
	const budget, maxCost, inserts = 4096, 40, 2000
	s := newWeightStore(budget)
	if len(s.shards) < 2 {
		t.Fatalf("expected a striped store at budget %d, got %d shard(s)", budget, len(s.shards))
	}
	shares := 0
	for i := range s.shards {
		shares += s.shards[i].share
	}
	if shares != budget {
		t.Fatalf("shares sum to %d, want %d", shares, budget)
	}
	for i := 0; i < inserts; i++ {
		s.Add(fmt.Sprintf("k%d", i), &weight{1 + i*7%maxCost})
		if i%3 == 0 {
			s.Cached(fmt.Sprintf("k%d", i/2))
		}
	}
	for i := range s.shards {
		if sh := &s.shards[i]; sh.used > sh.share+maxCost {
			t.Fatalf("shard %d charges %d against a share of %d", i, sh.used, sh.share)
		}
	}
	sum, n := 0, 0
	s.Range(func(_ string, w *weight) { sum, n = sum+w.n, n+1 })
	st := s.Stats()
	if st.Cost != sum || st.Size != n {
		t.Fatalf("stats = %+v, Range sees %d entries costing %d", st, n, sum)
	}
	if st.Evictions != uint64(inserts-n) {
		t.Fatalf("evictions = %d, want %d", st.Evictions, inserts-n)
	}
	if _, ok := s.Cached(fmt.Sprintf("k%d", inserts-1)); !ok {
		t.Fatal("most recent key missing")
	}
}

// TestCostStoreCachedHitNoAlloc: the cost-bounded store keeps the
// zero-alloc hit path of TestStoreCachedHitNoAlloc.
func TestCostStoreCachedHitNoAlloc(t *testing.T) {
	s := newWeightStore(1 << 20)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		s.Add(keys[i], &weight{100})
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if w, ok := s.Cached(keys[i%len(keys)]); !ok || w.n != 100 {
			t.Fatal("miss on a warm key")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Cached hit allocates %.1f objects/op, want 0", allocs)
	}
}
