package engine

import (
	"context"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// DefaultStoreSize bounds the policy cache when no explicit size is
// configured.
const DefaultStoreSize = 128

// Shard sizing: a store is striped into power-of-two shards so
// concurrent hits on different keys never touch the same lock, but only
// while each shard keeps a share of at least minShardCap budget units —
// a CLOCK ring narrower than that approximates recency too coarsely to
// be useful. Small stores (tests, tiny deployments) therefore collapse
// to one shard and behave like the classic single-lock cache.
const (
	maxStoreShards = 32
	minShardCap    = 8
)

// storeSeed keys the shard hash. One process-wide random seed is
// enough: shard placement only needs to be stable within a process.
var storeSeed = maphash.MakeSeed()

// Store is the server's one bounded cache — policies, environments,
// per-user overlays and interactive sessions are all instances of it:
// a sharded CLOCK cache with a per-entry cost and per-key singleflight
// creation. Concurrent requests for the same cold key share one
// training run; requests for different keys train in parallel; cached
// reads never wait on any training run, nor on each other.
//
// The hot path is contention-free by construction: a cache hit takes
// one shard's read lock (shared, never exclusive) and publishes its
// recency with a single atomic store on the entry's CLOCK access bit.
// No hit ever mutates shard structure; eviction reads the access bits
// only when a shard needs a victim. Eviction is therefore
// approximate-LRU: recently touched entries survive the sweep, cold
// ones are reclaimed in ring order.
//
// Every entry is charged a cost: 1 for NewStore, whose budget counts
// entries, or the cost function's figure for NewCostStore (bytes, for
// the overlay store). The budget is split into equal per-shard shares
// that sum to it, and a shard evicts when its entries' cost exceeds its
// share. A shard may exceed its share only by the entry just inserted
// or re-charged, which is never its own victim; so the live total stays
// under the budget plus one entry per shard, and a skewed key
// distribution can evict before the global budget is reached.
type Store[V comparable] struct {
	shards []storeShard[V]
	mask   uint64
	// cost charges a value against its shard's share; nil charges 1.
	// It runs under the shard's exclusive lock, so it must be cheap and
	// must not call back into the store.
	cost func(V) int

	// tier is the optional durable second tier (AttachTier): consulted
	// after a memory miss before training, written through after every
	// successful run and every Add, quarantined alongside Remove.
	// Attached before serving, then read-only — see AttachTier.
	tier Tier[V]

	// hits / misses count lookup outcomes for the metrics endpoint. A
	// Cached probe only counts on success (its miss is not final — the
	// caller typically proceeds to GetOrTrain, which records the real
	// outcome); GetOrTrain counts a hit on a cached read and a miss for
	// both the singleflight leader and its followers. evictions counts
	// the entries the CLOCK sweep reclaimed (not Remove calls).
	hits, misses, evictions atomic.Uint64
}

// storeShard is one stripe of the cache: a map for lookup, a CLOCK ring
// for eviction and the shard's slice of the singleflight call table.
// The RWMutex is held shared on the hit path and exclusive only for
// structure changes (insert, re-charge, evict, remove, singleflight
// registration).
type storeShard[V comparable] struct {
	mu      sync.RWMutex
	share   int // this shard's part of the store's budget
	used    int // summed cost of the entries in ring
	entries map[string]*storeEntry[V]
	ring    []*storeEntry[V] // CLOCK ring; len == live entries
	hand    int
	calls   map[string]*call[V]
}

// storeEntry is one cached value plus its charge and CLOCK state. val,
// cost and slot are guarded by the shard lock (written under the
// exclusive lock, read under the shared one); touched is the access
// bit, written by concurrent readers and must therefore be atomic.
type storeEntry[V comparable] struct {
	key     string
	val     V
	cost    int
	slot    int // index in the shard ring, -1 until linked
	touched atomic.Bool
}

// CacheStats is a point-in-time view of a Store's lookup counters and
// occupancy.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	// Size is the live entry count; Cost is their summed charge (equal
	// to Size for a NewStore store).
	Size, Cost int
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewStore builds a store holding at most maxEntries values
// (DefaultStoreSize when maxEntries <= 0), each charged 1.
func NewStore[V comparable](maxEntries int) *Store[V] {
	if maxEntries <= 0 {
		maxEntries = DefaultStoreSize
	}
	return NewCostStore[V](maxEntries, nil)
}

// NewCostStore builds a store whose entries' summed cost stays within
// budget, give or take the one-entry-per-shard overshoot Store
// documents. cost reports what a value weighs in the budget's unit and
// is re-evaluated by Recharge after the value changes in place; nil
// charges 1 per entry.
func NewCostStore[V comparable](budget int, cost func(V) int) *Store[V] {
	nshards := 1
	for nshards < maxStoreShards && budget/(nshards*2) >= minShardCap {
		nshards *= 2
	}
	s := &Store[V]{
		shards: make([]storeShard[V], nshards),
		mask:   uint64(nshards - 1),
		cost:   cost,
	}
	per := budget / nshards
	extra := budget % nshards
	for i := range s.shards {
		share := per
		if i < extra {
			share++
		}
		s.shards[i] = storeShard[V]{
			share:   share,
			entries: make(map[string]*storeEntry[V]),
			calls:   make(map[string]*call[V]),
		}
	}
	return s
}

// shard maps a key to its stripe.
func (s *Store[V]) shard(key string) *storeShard[V] {
	return &s.shards[maphash.String(storeSeed, key)&s.mask]
}

// Cached returns the value for key without ever blocking on training —
// or, on a hit, on any other reader or writer beyond the shard's shared
// lock. The recency touch is one atomic store; no list moves, no
// exclusive lock.
func (s *Store[V]) Cached(key string) (V, bool) {
	v, ok := s.shard(key).cached(key)
	if ok {
		s.hits.Add(1)
	}
	return v, ok
}

func (sh *storeShard[V]) cached(key string) (V, bool) {
	sh.mu.RLock()
	e, ok := sh.entries[key]
	if !ok {
		sh.mu.RUnlock()
		var zero V
		return zero, false
	}
	v := e.val
	sh.mu.RUnlock()
	// The access bit may be set after the lock is dropped: CLOCK only
	// needs it to be eventually visible to the next eviction sweep.
	e.touched.Store(true)
	return v, true
}

// Add installs v under key (artifact import, derivation, sessions),
// evicting CLOCK victims from the key's shard until it fits its share
// again. With a durable tier attached, v is written through to it like
// a trained value — outside the shard lock, so cached reads of the
// shard never wait on the disk — and a restarted store serves it
// instead of training the key afresh.
func (s *Store[V]) Add(key string, v V) {
	sh := s.shard(key)
	sh.mu.Lock()
	s.add(sh, key, v)
	sh.mu.Unlock()
	if t := s.tier; t != nil {
		t.Put(key, v)
	}
}

// Recharge re-evaluates the cost of key's entry after its value changed
// in place (an overlay that took feedback), marks the entry used and
// evicts other entries of its shard until the shard fits its share —
// never the re-charged entry itself. It reports whether key was cached.
func (s *Store[V]) Recharge(key string) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if ok {
		s.add(sh, key, e.val)
	}
	return ok
}

// add inserts, overwrites or re-charges key under sh's exclusive lock.
// New entries start with a clear access bit: an entry that is never
// read again is the next sweep's natural victim, while one Cached hit
// grants a full second chance — the CLOCK analogue of LRU's
// insert-at-front. Overwriting or re-charging counts as a use.
func (s *Store[V]) add(sh *storeShard[V], key string, v V) {
	c := 1
	if s.cost != nil {
		c = s.cost(v)
	}
	e, ok := sh.entries[key]
	if ok {
		e.val = v
		e.touched.Store(true)
	} else {
		e = &storeEntry[V]{key: key, val: v, slot: -1}
		sh.entries[key] = e
	}
	sh.used += c - e.cost
	e.cost = c
	s.evictions.Add(uint64(sh.evict(e)))
	if e.slot < 0 {
		e.slot = len(sh.ring)
		sh.ring = append(sh.ring, e)
	}
}

// evict advances the CLOCK hand, spending access bits, and evicts
// untouched entries until the shard's charge fits its share or keep —
// the entry just inserted or re-charged — is all that is left; keep is
// never the victim. A keep not yet linked (slot < 0) takes the first
// victim's slot just behind the advancing hand, so, as in CLOCK, a new
// entry is the last one the next sweep reaches; later victims are
// unlinked. Bounded: each pass clears every bit it crosses, so the
// sweep terminates within two revolutions. It returns the number of
// entries evicted.
func (sh *storeShard[V]) evict(keep *storeEntry[V]) int {
	n := 0
	for sh.used > sh.share && len(sh.ring) > 0 && (len(sh.ring) > 1 || sh.ring[0] != keep) {
		victim := sh.ring[sh.hand]
		if victim == keep || victim.touched.CompareAndSwap(true, false) {
			sh.hand = (sh.hand + 1) % len(sh.ring)
			continue
		}
		delete(sh.entries, victim.key)
		sh.used -= victim.cost
		n++
		if keep.slot < 0 {
			keep.slot = sh.hand
			sh.ring[sh.hand] = keep
			sh.hand = (sh.hand + 1) % len(sh.ring)
		} else {
			sh.unlink(victim)
		}
	}
	return n
}

// remove deletes e from the shard under the exclusive lock.
func (sh *storeShard[V]) remove(e *storeEntry[V]) {
	delete(sh.entries, e.key)
	sh.used -= e.cost
	sh.unlink(e)
}

// unlink takes e out of the ring, closing the gap by moving the ring's
// last entry into e's slot.
func (sh *storeShard[V]) unlink(e *storeEntry[V]) {
	last := len(sh.ring) - 1
	moved := sh.ring[last]
	sh.ring[e.slot] = moved
	moved.slot = e.slot
	sh.ring[last] = nil // the backing array must not pin an evicted value
	sh.ring = sh.ring[:last]
	if sh.hand >= len(sh.ring) {
		sh.hand = 0
	}
}

// GetOrTrain returns the cached value for key, or trains it. Exactly
// one caller per key runs train at a time; the others wait for its
// result (or their context). The trained result is cached on success;
// errors are not cached, so a later request retries. The returned bool
// reports whether this call ran the training itself.
func (s *Store[V]) GetOrTrain(ctx context.Context, key string, train func() (V, error)) (V, bool, error) {
	var zero V
	sh := s.shard(key)
	if v, ok := sh.cached(key); ok {
		s.hits.Add(1)
		return v, false, nil
	}
	sh.mu.Lock()
	// Re-check under the exclusive lock: the value may have landed
	// between the shared-lock probe and here.
	if e, ok := sh.entries[key]; ok {
		v := e.val
		sh.mu.Unlock()
		e.touched.Store(true)
		s.hits.Add(1)
		return v, false, nil
	}
	s.misses.Add(1)
	if c, ok := sh.calls[key]; ok {
		// Follower: wait for the in-flight training run without holding
		// the lock, so cached reads stay available meanwhile.
		sh.mu.Unlock()
		select {
		case <-c.done:
			return c.val, false, c.err
		case <-ctx.Done():
			return zero, false, ctx.Err()
		}
	}
	c := &call[V]{done: make(chan struct{})}
	sh.calls[key] = c
	sh.mu.Unlock()

	// Leader: train outside the lock. The deferred cleanup also covers a
	// panicking trainer, so followers are never stranded on done.
	finished := false
	defer func() {
		if !finished && c.err == nil {
			c.err = fmt.Errorf("engine: training for %q aborted", key)
		}
		sh.mu.Lock()
		delete(sh.calls, key)
		if c.err == nil {
			s.add(sh, key, c.val)
		}
		sh.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = s.runTrain(ctx, key, train)
	finished = true
	return c.val, true, c.err
}

// Remove evicts key from the cache. The serving layer uses it to drop a
// policy that failed at Recommend time (a malformed artifact), so the
// next request retrains instead of re-serving the bad value. With a
// durable tier attached, the key's on-disk entry is quarantined too —
// otherwise the bad artifact would simply reload from disk on the next
// miss. An in-flight training call for the key is unaffected. Removing
// an absent key is a no-op.
func (s *Store[V]) Remove(key string) {
	sh := s.shard(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.remove(e)
	}
	sh.mu.Unlock()
	if t := s.tier; t != nil {
		t.Quarantine(key)
	}
}

// CompareAndRemove removes key only while it still holds old, and
// reports whether it did: a caller that found a stale value drops that
// value, never one a concurrent request has since installed under the
// same key. It touches only memory; the durable tier is left alone.
func (s *Store[V]) CompareAndRemove(key string, old V) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok || e.val != old {
		return false
	}
	sh.remove(e)
	return true
}

// Len returns the number of cached values.
func (s *Store[V]) Len() int { return s.Stats().Size }

// Stats returns the store's cumulative hit/miss/eviction counters and
// its current entry count and summed cost.
func (s *Store[V]) Stats() CacheStats {
	st := CacheStats{Hits: s.hits.Load(), Misses: s.misses.Load(), Evictions: s.evictions.Load()}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.Size += len(sh.ring)
		st.Cost += sh.used
		sh.mu.RUnlock()
	}
	return st
}

// Range calls f on every cached entry, shard by shard, under each
// shard's shared lock. It is the store's scan: unlike Cached it counts
// no hit and sets no access bit, so listing or measuring the cache
// never makes an entry look used. With the sharded CLOCK layout there
// is no global recency order; callers may assume only that every live
// key is visited exactly once. f must be cheap and must not call back
// into the store: anything slower (matching a policy against a
// catalog) belongs on a snapshot collected here.
func (s *Store[V]) Range(f func(key string, v V)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.ring {
			f(e.key, e.val)
		}
		sh.mu.RUnlock()
	}
}

// Keys returns the cached keys in Range order.
func (s *Store[V]) Keys() []string {
	var out []string
	s.Range(func(key string, _ V) { out = append(out, key) })
	return out
}
