package server

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// monoOrigin is the origin of every monotonic reading the daemon takes: a
// reading is time.Since(monoOrigin). One origin for the whole process lets
// the tier-wide and daemon-wide buckets, which many connections share,
// compare readings taken on different connections.
var monoOrigin = time.Now()

// monoNow takes one monotonic reading.
func monoNow() time.Duration { return time.Since(monoOrigin) }

// tokenBucket is a token bucket (rate tokens/s, depth burst) that reads
// no clock: every decision takes the caller's monotonic reading. Credit
// accrues from last, the reading of the last admission that spent it:
//
//   - an admission while the bucket holds a whole token spends it and
//     leaves last alone, so the interval since last is credited later;
//   - any other admission credits the interval since last (capped at
//     burst), spends one token and moves last to its reading;
//   - a refusal changes nothing, and a reading at or before last mints
//     nothing, so a reading that goes backwards is never credited later.
//
// rate <= 0 means unlimited. Not safe for concurrent use: each
// connection's serve loop owns its bucket, and lockedBucket shares one.
type tokenBucket struct {
	rate, burst float64
	tokens      float64       // credit held as of last
	last        time.Duration // reading of the last admission that spent credit
}

// newTokenBucket builds a full bucket whose credit accrues from reading now.
func newTokenBucket(rate, burst float64, now time.Duration) *tokenBucket {
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

func (b *tokenBucket) allow(now time.Duration) bool {
	if b.rate <= 0 {
		return true
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	if now <= b.last {
		return false
	}
	credit := min(b.burst, b.tokens+(now-b.last).Seconds()*b.rate)
	if credit < 1 {
		return false
	}
	b.tokens = credit - 1
	b.last = now
	return true
}

// readyAt is a reading before which allow refuses: math.MinInt64 while
// the bucket is unlimited or holds a whole token, math.MaxInt64 when its
// depth is under one token, and otherwise the instant the credit accrued
// since last reaches one token, rounded down past floating-point error so
// it is never later than allow's own boundary.
func (b *tokenBucket) readyAt() time.Duration {
	if b.rate <= 0 || b.tokens >= 1 {
		return math.MinInt64
	}
	if b.burst < 1 {
		return math.MaxInt64
	}
	wait := (1 - b.tokens - 1e-12) / b.rate * 1e9 // ns
	if wait >= math.MaxInt64-float64(b.last) {
		return math.MaxInt64
	}
	return b.last + time.Duration(wait) - 1
}

// lockedBucket is a tokenBucket shared by many serve loops: the tier-wide
// and daemon-wide budgets. After every decision, under its mutex, it
// publishes the bucket's readyAt. A refusal changes nothing, so a reading
// before that instant is refused with one atomic load and no lock — the
// decision the locked bucket would make. Readings at or past it take the
// mutex. Neither path allocates.
type lockedBucket struct {
	ready atomic.Int64 // b.readyAt() after the last decision
	mu    sync.Mutex
	b     tokenBucket
}

func newLockedBucket(rate, burst float64, now time.Duration) *lockedBucket {
	lb := &lockedBucket{b: *newTokenBucket(rate, burst, now)}
	lb.ready.Store(int64(lb.b.readyAt()))
	return lb
}

func (lb *lockedBucket) allow(now time.Duration) bool {
	if int64(now) < lb.ready.Load() {
		return false
	}
	lb.mu.Lock()
	ok := lb.b.allow(now)
	lb.ready.Store(int64(lb.b.readyAt()))
	lb.mu.Unlock()
	return ok
}
