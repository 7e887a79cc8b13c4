// The durable second tier behind the policy store: memory CLOCK cache →
// tier → train. The Tier interface is what the store needs from a durable
// artifact repository (internal/repo behind a serialization adapter);
// keeping it an interface here avoids an engine→repo dependency and
// lets tests drive the protocol with in-memory fakes.
package engine

import (
	"context"
	"time"
)

// Claim-wait polling schedule: a store whose key is being trained by
// another process re-checks the tier on this exponential ladder (the
// same shape as the resilience breaker's backoff, scaled to disk-poll
// latencies).
const (
	claimPollBase = 25 * time.Millisecond
	claimPollMax  = time.Second
)

// Tier is a durable policy tier shared across processes. All methods
// must be safe for concurrent use. The tier absorbs its own faults:
// serving never depends on tier health — every error path degrades to
// local training.
type Tier[V any] interface {
	// Get loads the artifact stored under key ((zero, false) on miss;
	// a corrupt entry must be quarantined internally and report a miss).
	Get(key string) (V, bool)
	// Put write-throughs a freshly trained or installed (Store.Add)
	// artifact. Failures are the tier's to log and absorb.
	Put(key string, v V)
	// Quarantine permanently invalidates key's durable entry — called
	// when serving detects a malformed artifact, so the bad bytes cannot
	// reload on the next miss.
	Quarantine(key string)
	// TryClaim arbitrates the cross-process trainer for key:
	// (release, true, nil) → this process trains and must call release;
	// (nil, false, nil) → another live process is training;
	// (nil, false, err) → the tier cannot arbitrate.
	TryClaim(key string) (release func(), claimed bool, err error)
}

// AttachTier installs a durable tier behind the in-memory cache. Lookups
// then resolve memory → tier → train: a tier hit fills the cache without
// training, a miss trains under the tier's cross-process claim and
// writes the artifact through, and so does every Add. Attach before
// serving; the store does not synchronize tier replacement against
// in-flight lookups.
func (s *Store[V]) AttachTier(t Tier[V]) { s.tier = t }

// runTrain resolves a confirmed memory miss for the singleflight
// leader. Without a tier it trains directly. With one, it consults the
// tier first, then competes for the cross-process claim: the winner
// trains and writes through; a loser polls the tier on the backoff
// ladder until the trainer's artifact appears, taking the claim over
// if the trainer dies or wedges (the tier's staleness rules).
func (s *Store[V]) runTrain(ctx context.Context, key string, train func() (V, error)) (V, error) {
	t := s.tier
	if t == nil {
		return train()
	}
	if v, ok := t.Get(key); ok {
		return v, nil
	}
	backoff := claimPollBase
	for {
		release, claimed, err := t.TryClaim(key)
		if err != nil {
			// The tier cannot arbitrate (disk fault): train locally and
			// still attempt the write-through — durability degrades,
			// serving does not.
			v, terr := train()
			if terr == nil {
				t.Put(key, v)
			}
			return v, terr
		}
		if claimed {
			// Re-check under the claim: a previous holder may have
			// published between our miss and our win. While we hold the
			// claim nobody else can publish, so this read is exact — it is
			// what makes "exactly one trainer per key" a guarantee instead
			// of a fast path.
			if v, ok := t.Get(key); ok {
				release()
				return v, nil
			}
			v, terr := train()
			if terr == nil {
				t.Put(key, v)
			}
			release()
			return v, terr
		}
		// Another process is training this key: wait out one backoff
		// step, then look for its artifact before re-competing.
		select {
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > claimPollMax {
			backoff = claimPollMax
		}
		if v, ok := t.Get(key); ok {
			return v, nil
		}
	}
}
