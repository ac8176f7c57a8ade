package server

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// steppedBucket is a token bucket fed a monotonic reading the test steps
// by hand.
type steppedBucket struct {
	b   *tokenBucket
	now time.Duration
}

func (s *steppedBucket) allow() bool { return s.b.allow(s.now) }

// fakeBucket builds a full token bucket at a fixed reading. The returned
// advance function steps that reading forward.
func fakeBucket(rate, burst float64) (*steppedBucket, func(time.Duration)) {
	s := &steppedBucket{now: time.Hour}
	s.b = newTokenBucket(rate, burst, s.now)
	return s, func(d time.Duration) { s.now += d }
}

func TestTokenBucketBurstExhaustion(t *testing.T) {
	b, _ := fakeBucket(10, 4)
	for i := 0; i < 4; i++ {
		if !b.allow() {
			t.Fatalf("frame %d refused inside the burst", i)
		}
	}
	// Reading frozen: no refill, everything past the burst is refused.
	for i := 0; i < 3; i++ {
		if b.allow() {
			t.Fatalf("frame allowed with an exhausted bucket and a frozen reading")
		}
	}
}

func TestTokenBucketPartialRefillAfterSleep(t *testing.T) {
	b, advance := fakeBucket(10, 4)
	for i := 0; i < 4; i++ {
		b.allow()
	}
	if b.allow() {
		t.Fatal("exhausted bucket allowed a frame")
	}
	// 250 ms at 10 tokens/s refills 2.5 tokens: exactly two more frames.
	advance(250 * time.Millisecond)
	if !b.allow() || !b.allow() {
		t.Fatal("partial refill did not admit 2 frames")
	}
	if b.allow() {
		t.Fatal("partial refill admitted a 3rd frame from 2.5 tokens")
	}
	// The fractional remainder must carry over, not be dropped: 50 ms more
	// brings 0.5 + 0.5 = 1 token.
	advance(50 * time.Millisecond)
	if !b.allow() {
		t.Fatal("fractional token credit was lost across refills")
	}
}

func TestTokenBucketRefillCapsAtBurst(t *testing.T) {
	b, advance := fakeBucket(1000, 8)
	for i := 0; i < 8; i++ {
		b.allow()
	}
	// An hour of idle credit still caps at the burst depth.
	advance(time.Hour)
	allowed := 0
	for i := 0; i < 100; i++ {
		if b.allow() {
			allowed++
		}
	}
	if allowed != 8 {
		t.Fatalf("allowed %d frames after long idle, want burst depth 8", allowed)
	}
}

func TestTokenBucketZeroRateUnlimited(t *testing.T) {
	b, _ := fakeBucket(0, 1)
	for i := 0; i < 10_000; i++ {
		if !b.allow() {
			t.Fatalf("rate=0 bucket refused frame %d; zero rate means unlimited", i)
		}
	}
}

// TestLockedBucketMatchesTokenBucket drives a shared lockedBucket and a
// plain tokenBucket with the same limits and the same readings and
// requires identical decisions: a refusal without the lock must be
// exactly the decision the locked bucket would make. Readings step
// forward, stand still, land on and around the published ready instant,
// jump far ahead and now and then go backwards.
func TestLockedBucketMatchesTokenBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	steps := 10000
	if testing.Short() {
		steps = 1000
	}
	decisions, lockFree := 0, 0
	for _, rate := range []float64{1e-9, 0.3, 1, 2.5, 7.77, 400, 1e6} {
		for _, burst := range []float64{0, 0.5, 1, 1.5, 2, 7, 64} {
			for trial := 0; trial < 4; trial++ {
				now := time.Duration(rng.Int63n(int64(time.Hour)))
				lb := newLockedBucket(rate, burst, now)
				plain := newTokenBucket(rate, burst, now)
				// One token's refill time, capped so readings stay far
				// from overflow over the whole walk.
				period := min(time.Duration(float64(time.Second)/rate), time.Hour)
				for i := 0; i < steps; i++ {
					ready := time.Duration(lb.ready.Load())
					switch r := rng.Intn(16); {
					case r == 0:
						now -= time.Duration(rng.Int63n(int64(period) + 1))
					case r == 1:
						now += time.Duration(burst+1) * period
					case r < 6 && ready != math.MinInt64 && ready != math.MaxInt64:
						now = ready + time.Duration(rng.Intn(5)-2)
					case r < 9:
						// Stand still.
					default:
						now += time.Duration(rng.Int63n(int64(period)/2 + 1))
					}
					if now < ready {
						lockFree++
					}
					if got, want := lb.allow(now), plain.allow(now); got != want {
						t.Fatalf("rate %v burst %v trial %d step %d: reading %d (ready %d): locked bucket = %v, plain bucket = %v",
							rate, burst, trial, i, now, ready, got, want)
					}
					decisions++
				}
			}
		}
	}
	if lockFree == 0 || lockFree == decisions {
		t.Fatalf("%d of %d decisions refused without the lock; the walk must exercise both paths", lockFree, decisions)
	}
	t.Logf("%d decisions, %d refused without the lock", decisions, lockFree)
}

// TestLockedBucketRefusesWithoutLock holds the shared bucket's mutex, as a
// concurrent admission would, and requires a refusal for a reading
// before the published ready instant to return at once.
func TestLockedBucketRefusesWithoutLock(t *testing.T) {
	now := time.Hour
	lb := newLockedBucket(1, 1, now)
	if !lb.allow(now) {
		t.Fatal("a full depth-1 bucket refused its token")
	}
	// Empty at rate 1/s: the next token is a second away.
	lb.mu.Lock()
	defer lb.mu.Unlock()
	done := make(chan bool, 1)
	go func() { done <- lb.allow(now + 500*time.Millisecond) }()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("an empty bucket admitted a frame half a token early")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a refusal before the ready instant waited for the bucket's mutex")
	}
}
