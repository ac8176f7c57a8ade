package server

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"proverattest/internal/obs"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// testTier builds one runtime tier from a spec, with its counter on a
// throwaway registry.
func testTier(t *testing.T, spec TierSpec) *tier {
	t.Helper()
	ts, err := buildTiers(&TierPolicy{Tiers: []TierSpec{spec}}, 0, 0, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	return ts.tiers[0]
}

// TestTierBucketBoundaries walks the tier per-connection bucket through
// the refill edge cases on hand-stepped readings. These are the admission
// decisions the tier-isolation guarantee rides on, so each boundary is
// pinned exactly: a token materialises at the refill instant, not a
// frame earlier.
func TestTierBucketBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rate  float64
		burst float64
		// steps alternate: advance the reading, then expect the given
		// admit/deny sequence.
		steps []struct {
			advance time.Duration
			want    []bool
		}
	}{
		{
			// An explicitly zero-depth bucket admits nothing, ever: credit
			// accrues but caps at burst 0, so it cannot reach one token.
			name: "zero burst admits nothing", rate: 10, burst: 0,
			steps: []struct {
				advance time.Duration
				want    []bool
			}{
				{0, []bool{false, false}},
				{time.Hour, []bool{false, false}},
			},
		},
		{
			// One token per second, depth one: the frame exactly at the
			// refill boundary is admitted, the one 1ms before is not.
			name: "refill exactly at the boundary", rate: 1, burst: 1,
			steps: []struct {
				advance time.Duration
				want    []bool
			}{
				{0, []bool{true, false}},
				{999 * time.Millisecond, []bool{false}},
				{1 * time.Millisecond, []bool{true, false}},
			},
		},
		{
			// A backwards reading must not mint tokens and must not wedge
			// the bucket. A refusal changes nothing, so the refill origin
			// stays at the last admission: the reading recovering to it
			// credits nothing, and the skewed interval is never credited.
			name: "clock skew backwards", rate: 10, burst: 2,
			steps: []struct {
				advance time.Duration
				want    []bool
			}{
				{0, []bool{true, true, false}},
				{-time.Hour, []bool{false, false}},
				{time.Hour, []bool{false, false, false}}, // back at the refill origin: no credit
				{100 * time.Millisecond, []bool{true, false}},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := testTier(t, TierSpec{
				Name:              "t",
				PerConnRatePerSec: tc.rate,
				PerConnBurst:      tc.burst,
			})
			// The per-conn burst default floor must not rewrite the
			// explicit test depths; pin it before trusting the walk.
			if _, _, _, gotBurst := tr.limits(); gotBurst != defaultBurst(tc.rate, tc.burst, 16) {
				t.Fatalf("tier connBurst = %v, want %v", gotBurst, defaultBurst(tc.rate, tc.burst, 16))
			}
			now := 24 * time.Hour
			b := tr.connBucketAt(now)
			if b == nil {
				t.Fatal("connBucketAt returned nil for a rated tier")
			}
			// Override the floored depth with the case's exact boundary
			// geometry (the floor is policy, the boundary math is what is
			// under test here).
			b.burst = tc.burst
			b.tokens = tc.burst
			for si, step := range tc.steps {
				now += step.advance
				for fi, want := range step.want {
					if got := b.allow(now); got != want {
						t.Fatalf("step %d frame %d: allow() = %v, want %v", si, fi, got, want)
					}
				}
			}
		})
	}
}

// TestTierSharedBucketConcurrent hammers one tier-wide bucket from many
// goroutines (the real serving shape: all of a tier's connections share
// it) and checks the admitted total against the budget envelope. Run
// under -race this is also the data-race proof for the shared gate.
func TestTierSharedBucketConcurrent(t *testing.T) {
	tr := testTier(t, TierSpec{Name: "t", RatePerSec: 1, Burst: 100})
	lb := tr.bucket.Load()
	const goroutines = 8
	const perG = 500
	var admitted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < perG; i++ {
				if lb.allow(monoNow()) {
					local++
				}
			}
			mu.Lock()
			admitted += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Exactly the burst, plus at most a few refill tokens if the race
	// detector stretches the loop across seconds of readings.
	if admitted < 100 || admitted > 110 {
		t.Fatalf("admitted %d frames from a burst-100 rate-1 tier bucket, want 100..110", admitted)
	}
	if got := tr.limited.Load(); got != 0 {
		t.Fatalf("tier.limited = %d, want 0 (the bucket does not count; the serving path does)", got)
	}
}

// TestDefaultTierMatchesFlatLimiter pins the back-compat contract: with
// no TierPolicy configured, the implicit default tier's per-connection
// bucket makes byte-identical admission decisions to the old flat
// limiter for the same (rate, burst) on the same readings.
func TestDefaultTierMatchesFlatLimiter(t *testing.T) {
	const rate, burst = 5, 3
	ts, err := buildTiers(nil, rate, burst, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	if !ts.def.isDefault || ts.def.name != "default" || len(ts.tiers) != 1 {
		t.Fatalf("implicit policy compiled to %+v, want a single default tier", ts.def)
	}
	if ts.def.bucket.Load() != nil {
		t.Fatal("implicit default tier has a tier-wide cap; the flat limiter had none")
	}

	now := 24 * time.Hour
	old := newTokenBucket(rate, burst, now)
	tiered := ts.def.connBucketAt(now)
	if tiered == nil {
		t.Fatal("implicit default tier built no per-conn bucket")
	}

	// A scripted traffic shape crossing every regime: in-burst, exhausted,
	// partial refill, long idle (cap at burst), fractional carry.
	script := []time.Duration{
		0, 0, 0, 0, 0, 0,
		100 * time.Millisecond, 0, 0,
		50 * time.Millisecond,
		time.Hour, 0, 0, 0, 0, 0,
		199 * time.Millisecond, 1 * time.Millisecond,
	}
	for i, adv := range script {
		now += adv
		if got, want := tiered.allow(now), old.allow(now); got != want {
			t.Fatalf("frame %d (advance %v): tiered limiter = %v, flat limiter = %v", i, adv, got, want)
		}
	}
}

func TestParseTierSpecs(t *testing.T) {
	specs, err := ParseTierSpecs([]string{
		"gold:class=1,match=gold-+vip-,rate=100,burst=200,conn-rate=10,conn-burst=20",
		"bulk",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []TierSpec{
		{Name: "gold", Class: 1, Match: []string{"gold-", "vip-"},
			RatePerSec: 100, Burst: 200, PerConnRatePerSec: 10, PerConnBurst: 20},
		{Name: "bulk"},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Fatalf("ParseTierSpecs = %+v, want %+v", specs, want)
	}

	for name, raw := range map[string]string{
		"empty name":    ":class=1",
		"not key=value": "gold:class",
		"class range":   "gold:class=300",
		"class junk":    "gold:class=abc",
		"bad rate":      "gold:rate=fast",
		"unknown key":   "gold:color=blue",
	} {
		if _, err := ParseTierSpecs([]string{raw}); err == nil {
			t.Errorf("%s: spec %q accepted", name, raw)
		}
	}
}

func TestBuildTiersValidation(t *testing.T) {
	for name, pol := range map[string]*TierPolicy{
		"no tiers":        {},
		"empty name":      {Tiers: []TierSpec{{Name: ""}}},
		"duplicate name":  {Tiers: []TierSpec{{Name: "a"}, {Name: "a"}}},
		"empty prefix":    {Tiers: []TierSpec{{Name: "a", Match: []string{""}}}},
		"duplicate class": {Tiers: []TierSpec{{Name: "a", Class: 3}, {Name: "b", Class: 3}}},
		"unknown default": {Tiers: []TierSpec{{Name: "a"}}, Default: "z"},
	} {
		if _, err := buildTiers(pol, 0, 0, obs.New()); err == nil {
			t.Errorf("%s: policy accepted", name)
		}
	}
}

// TestTierPolicyRefusesFlatConnLimits: the flat per-connection fields
// only configure the implicit single tier, so a config that sets them
// next to a tier policy would lose them silently. New refuses the pair
// and points at the per-tier keys; either half alone still builds.
func TestTierPolicyRefusesFlatConnLimits(t *testing.T) {
	pol := &TierPolicy{Tiers: []TierSpec{{Name: "gold", Match: []string{"dev-"}}}}
	for name, tc := range map[string]struct {
		mutate func(*Config)
		ok     bool
	}{
		"flat only":          {func(c *Config) { c.PerConnRatePerSec, c.PerConnBurst = 50, 8 }, true},
		"tiers only":         {func(c *Config) { c.Tiers = pol }, true},
		"tiers + conn rate":  {func(c *Config) { c.Tiers, c.PerConnRatePerSec = pol, 50 }, false},
		"tiers + conn burst": {func(c *Config) { c.Tiers, c.PerConnBurst = pol, 8 }, false},
	} {
		cfg := Config{
			Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1,
			MasterSecret: testMaster, Golden: []byte{1},
		}
		tc.mutate(&cfg)
		s, err := New(cfg)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: refused: %v", name, err)
		case !tc.ok && err == nil:
			t.Errorf("%s: accepted", name)
		case !tc.ok && !strings.Contains(err.Error(), "conn-rate=/conn-burst="):
			t.Errorf("%s: error %q does not name the per-tier keys", name, err)
		}
		if s != nil {
			s.Close()
		}
	}
}

func TestTierResolve(t *testing.T) {
	ts, err := buildTiers(&TierPolicy{
		Tiers: []TierSpec{
			{Name: "gold", Class: 1, Match: []string{"gold-"}},
			{Name: "goldplus", Class: 3, Match: []string{"gold-plus-"}},
			{Name: "bulk", Class: 2},
		},
		Default: "bulk",
	}, 0, 0, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id         string
		advertised uint8
		want       string
	}{
		{"gold-007", 0, "gold"},
		{"gold-plus-007", 0, "goldplus"}, // longest prefix wins across tiers
		{"gold-007", 2, "gold"},          // ID rule beats the advertisement
		{"sensor-1", 1, "gold"},          // advertisement honoured with no rule
		{"sensor-1", 0, "bulk"},          // default
		{"sensor-1", 9, "bulk"},          // undeclared class falls to default
	} {
		if got := ts.resolve(tc.id, tc.advertised).name; got != tc.want {
			t.Errorf("resolve(%q, %d) = %s, want %s", tc.id, tc.advertised, got, tc.want)
		}
	}
}

// TestTierSetLimits pins the admin-override semantics: negative keeps,
// zero lifts the cap, and the tier-wide bucket is rebuilt immediately.
func TestTierSetLimits(t *testing.T) {
	tr := testTier(t, TierSpec{Name: "t", RatePerSec: 100, Burst: 2})
	// One reading for the whole walk: no bucket refills on it, so each
	// decision depends only on the bucket the override left in place. Each
	// frame is a read of its own, which loads the tier's current bucket.
	now := monoNow()
	allow := func() bool {
		c := chain{now: now, tier: tr.bucket.Load()}
		return c.refusal() == causeNone
	}
	if !allow() || !allow() {
		t.Fatal("burst-2 tier refused its burst")
	}

	// Keep everything: limits unchanged, but the bucket refills to full.
	tr.setLimits(-1, -1, -1, -1)
	rate, burst, connRate, connBurst := tr.limits()
	if rate != 100 || burst != 2 || connRate != 0 || connBurst != 0 {
		t.Fatalf("keep-all override changed limits to %v/%v/%v/%v", rate, burst, connRate, connBurst)
	}
	if !allow() || !allow() || allow() {
		t.Fatal("rebuilt bucket is not full at the configured burst")
	}

	// Zero rate lifts the tier-wide cap entirely.
	tr.setLimits(0, -1, -1, -1)
	if tr.bucket.Load() != nil {
		t.Fatal("zero-rate override left a tier-wide bucket in place")
	}
	for i := 0; i < 1000; i++ {
		if !allow() {
			t.Fatal("uncapped tier refused a frame")
		}
	}

	// Re-imposing a rate with an unset burst applies the default floor;
	// per-conn overrides land in the limits snapshot.
	tr.setLimits(10, 0, 7, 0)
	rate, burst, connRate, connBurst = tr.limits()
	if rate != 10 || burst != 64 || connRate != 7 || connBurst != 16 {
		t.Fatalf("override left limits %v/%v/%v/%v, want 10/64/7/16", rate, burst, connRate, connBurst)
	}
	if tr.bucket.Load() == nil {
		t.Fatal("re-imposed rate built no tier-wide bucket")
	}
}

// TestTierLimitedOverWire drives a two-tier daemon through a real
// connection: a flood riding a capped tier dies at the gate as
// rejects{tier_limited} while the tier's admitted counter stays inside
// the budget envelope.
func TestTierLimitedOverWire(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.Tiers = &TierPolicy{
			Tiers: []TierSpec{
				{Name: "gold", Class: 1, Match: []string{"gold-"}},
				{Name: "bulk", Class: 2, RatePerSec: 1, Burst: 3},
			},
			Default: "bulk",
		}
	})
	client, peer := net.Pipe()
	go s.HandleConn(peer)
	tc := transport.NewConn(client, transport.Options{WriteTimeout: 2 * time.Second})
	defer tc.Close()

	hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, Tier: 2, DeviceID: "sensor-1"}
	if err := tc.Send(hello.Encode()); err != nil {
		t.Fatal(err)
	}
	junk := (&protocol.StatsReport{Received: 1}).Encode()
	for i := 0; i < 40; i++ {
		if err := tc.Send(junk); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "tier-limited frames", func() bool {
		c := s.Counters()
		return c.TierLimited > 0 && c.StatsReports > 0 && c.StatsReports <= 3
	})
	bulk := s.tiers.byName("bulk")
	if got := bulk.admitted.Load(); got == 0 || got > 3 {
		t.Fatalf("bulk tier admitted %d frames, want 1..3 (burst)", got)
	}
	if got := bulk.limited.Load(); got == 0 {
		t.Fatal("bulk tier recorded no limited frames")
	}
	if gold := s.tiers.byName("gold").limited.Load(); gold != 0 {
		t.Fatalf("gold tier recorded %d limited frames for bulk's flood", gold)
	}
}
