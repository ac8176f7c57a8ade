package server

import (
	"io"
	"net"
	"testing"
	"time"

	"proverattest/internal/core"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// These tests lock in the daemon's per-frame allocation budget. The frame
// families a hostile peer can emit at line rate — rate-limited, unknown,
// and unsolicited-response frames — must die at the serving gate without
// GC pressure: zero allocations for the first two, at most one object per
// frame anywhere on the reject path (acceptance bar; the measured paths
// below are zero today).

// newAllocRig builds a daemon and one device entry resolved into its tier
// policy; mutate, when given, adjusts the config first.
func newAllocRig(t testing.TB, mutate ...func(*Config)) (*Server, *deviceState) {
	t.Helper()
	cfg := Config{
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: testMaster,
		Golden:       core.GoldenRAMPattern(),
	}
	for _, f := range mutate {
		f(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := s.device("alloc-dev")
	if err != nil {
		t.Fatal(err)
	}
	dev.setTier(s.tiers.resolve(dev.id, 0))
	return s, dev
}

func allocsPerFrame(t *testing.T, name string, limit float64, fn func()) {
	t.Helper()
	fn() // warm up
	if n := testing.AllocsPerRun(1000, fn); n > limit {
		t.Errorf("%s: %v allocs/frame, want <= %v", name, n, limit)
	}
}

func TestHandleFrameUnknownZeroAllocs(t *testing.T) {
	s, dev := newAllocRig(t)
	frame := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	var g gateTally
	allocsPerFrame(t, "unknown frame", 0, func() { s.handleFrame(&g, dev, nil, 0, frame) })
	s.publish(&g)
	if s.Counters().UnknownFrames == 0 {
		t.Fatal("unknown frames not counted")
	}
}

func TestHandleFrameRateLimitedZeroAllocs(t *testing.T) {
	s, dev := newAllocRig(t)
	// An empty bucket with a negligible refill rate: every frame is over
	// budget, the cheapest (and most attacker-reachable) reject of all.
	bucket := newTokenBucket(1e-9, 1, 0)
	bucket.tokens = 0
	frame := []byte{0xDE, 0xAD}
	var g gateTally
	allocsPerFrame(t, "rate-limited frame", 0, func() { s.handleFrame(&g, dev, bucket, time.Second, frame) })
	s.publish(&g)
	if s.Counters().RateLimited == 0 {
		t.Fatal("rate-limited frames not counted")
	}
}

// TestHandleFrameTierLimitedZeroAllocs pins the tier-wide refusal: the
// device rides a capped tier whose shared budget the warm-up frame
// spends, so every measured frame dies at the tier bucket before decode.
func TestHandleFrameTierLimitedZeroAllocs(t *testing.T) {
	s, dev := newAllocRig(t, func(c *Config) {
		c.Tiers = &TierPolicy{Tiers: []TierSpec{{Name: "bulk", RatePerSec: 1e-9, Burst: 1}}}
	})
	frame := []byte{0xDE, 0xAD}
	var g gateTally
	allocsPerFrame(t, "tier-limited frame", 0, func() { s.handleFrame(&g, dev, nil, time.Second, frame) })
	s.publish(&g)
	if c := s.Counters(); c.TierLimited == 0 || c.TierLimited+c.UnknownFrames != c.FramesIn {
		t.Fatalf("tier-limited frames not counted: %v", c)
	}
}

// TestHandleFrameDaemonRateZeroAllocs pins the daemon-wide refusal: the
// warm-up frame spends the daemon's whole budget, so every measured frame
// dies at the daemon bucket before decode.
func TestHandleFrameDaemonRateZeroAllocs(t *testing.T) {
	s, dev := newAllocRig(t, func(c *Config) {
		c.MaxRatePerSec, c.MaxRateBurst = 1e-9, 1
	})
	frame := []byte{0xDE, 0xAD}
	var g gateTally
	allocsPerFrame(t, "daemon-rate frame", 0, func() { s.handleFrame(&g, dev, nil, time.Second, frame) })
	s.publish(&g)
	if c := s.Counters(); c.DaemonRateLimited == 0 || c.DaemonRateLimited+c.UnknownFrames != c.FramesIn {
		t.Fatalf("daemon-rate frames not counted: %v", c)
	}
}

func TestHandleFrameUnsolicitedRespZeroAllocs(t *testing.T) {
	s, dev := newAllocRig(t)
	// A well-formed response answering no outstanding nonce: decode-into,
	// shard-locked map miss, static-error reject.
	frame := (&protocol.AttResp{Nonce: 0xFEED}).Encode()
	var g gateTally
	allocsPerFrame(t, "unsolicited response", 0, func() { s.handleFrame(&g, dev, nil, 0, frame) })
	s.publish(&g)
	if s.Counters().ResponsesUnsolicited == 0 {
		t.Fatal("unsolicited responses not counted")
	}
}

func TestHandleFrameMalformedRespZeroAllocs(t *testing.T) {
	s, dev := newAllocRig(t)
	// Classifies as a response (magic + version) but fails strict framing.
	frame := (&protocol.AttResp{Nonce: 1}).Encode()[:respTruncated]
	var g gateTally
	allocsPerFrame(t, "malformed response", 0, func() { s.handleFrame(&g, dev, nil, 0, frame) })
	s.publish(&g)
	c := s.Counters()
	if c.ResponsesMalformed == 0 || c.MalformedFrames == 0 {
		t.Fatal("malformed responses not counted on their distinct cause series")
	}
	if c.ResponsesRejected != c.ResponsesMalformed {
		t.Fatalf("rejected roll-up %d != malformed cause %d (no mismatches occurred)",
			c.ResponsesRejected, c.ResponsesMalformed)
	}
	if c.UnknownFrames != 0 {
		t.Fatal("malformed responses leaked into the unknown-kind counter")
	}
}

// TestHandleFrameMalformedStatsDistinctCause pins the accounting split:
// a frame that classifies as stats but fails strict decode lands on the
// malformed-stats series, not on unknown-kind (where it was historically
// conflated) and not on the response counters.
func TestHandleFrameMalformedStatsDistinctCause(t *testing.T) {
	s, dev := newAllocRig(t)
	frame := (&protocol.StatsReport{Received: 1}).Encode()
	frame = frame[:len(frame)-1] // classifies as stats, fails length check
	var g gateTally
	allocsPerFrame(t, "malformed stats", 0, func() { s.handleFrame(&g, dev, nil, 0, frame) })
	s.publish(&g)
	c := s.Counters()
	if c.MalformedFrames == 0 {
		t.Fatal("malformed stats frames not counted as malformed")
	}
	if c.UnknownFrames != 0 || c.ResponsesRejected != 0 || c.StatsReports != 0 {
		t.Fatalf("malformed stats conflated with another cause: %v", c)
	}
}

// TestHandleFrameFastAcceptZeroAllocs pins the quiescent-fleet steady
// state: an accepted O(1) fast response — decode-into, shard-locked
// memoized compare, retire — must not allocate, since a clean fleet
// emits exactly these at the attestation rate forever. Requests are
// pre-issued and responses pre-encoded so the measured region is the
// daemon's per-frame path alone.
func TestHandleFrameFastAcceptZeroAllocs(t *testing.T) {
	s, err := New(Config{
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: testMaster,
		Golden:       core.GoldenRAMPattern(),
		FastPath:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := s.device("alloc-fast-dev")
	if err != nil {
		t.Fatal(err)
	}
	key := protocol.DeriveDeviceKey(testMaster, "alloc-fast-dev")
	fr := protocol.NewFastResponder(key[:], core.GoldenRAMPattern())

	// The arming full round.
	req, err := dev.v.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	var resp protocol.AttResp
	fr.RespondInto(req, &resp)
	var g gateTally
	s.handleFrame(&g, dev, nil, 0, resp.Encode())
	if c := s.Counters(); c.ResponsesAccepted != 1 || c.ResponsesFast != 0 {
		t.Fatalf("arming round: %+v", c)
	}

	// Pre-issue enough fast rounds for the warm-ups plus AllocsPerRun.
	const rounds = 1200
	frames := make([][]byte, 0, rounds)
	for i := 0; i < rounds; i++ {
		req, err := dev.v.NewRequest()
		if err != nil {
			t.Fatal(err)
		}
		if !req.AllowFast {
			t.Fatalf("round %d: armed verifier withheld fast permission", i)
		}
		var r protocol.AttResp
		if !fr.RespondInto(req, &r) {
			t.Fatalf("round %d: clean responder fell back to the full MAC", i)
		}
		frames = append(frames, r.Encode())
	}
	i := 0
	allocsPerFrame(t, "fast accept", 0, func() { s.handleFrame(&g, dev, nil, 0, frames[i]); i++ })
	s.publish(&g)
	c := s.Counters()
	if c.ResponsesFast != uint64(i) || c.ResponsesRejected != 0 {
		t.Fatalf("after %d fast frames: %+v", i, c)
	}
}

// respTruncated cuts a response mid-measurement: long enough to classify,
// short enough to fail DecodeAttRespInto's length check.
const respTruncated = 20

// BenchmarkHandleFrameUnsolicited times the daemon's gate on its most
// attacker-reachable reject: a well-formed response answering no
// outstanding nonce — decode-into, shard-locked map miss, static error.
func BenchmarkHandleFrameUnsolicited(b *testing.B) {
	s, dev := newAllocRig(b)
	frame := (&protocol.AttResp{Nonce: 0xFEED}).Encode()
	var g gateTally
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleFrame(&g, dev, nil, 0, frame)
	}
}

func TestHandleFrameStatsWithinBudget(t *testing.T) {
	s, dev := newAllocRig(t)
	frame := (&protocol.StatsReport{Received: 1}).Encode()
	// One decoded StatsReport object per heartbeat frame is the budget.
	var g gateTally
	allocsPerFrame(t, "stats frame", 1, func() { s.handleFrame(&g, dev, nil, 0, frame) })
	if dev.lastStats.Load() == nil {
		t.Fatal("stats report not retained")
	}
}

// TestIssueOneAllocs pins the honest issue path: sign and encode the
// request, send it, arm its abandon timer. A drained pipe stands in for
// the agent; the high inflight cap and the long timeout keep every
// measured request outstanding and its timer unfired.
func TestIssueOneAllocs(t *testing.T) {
	s, dev := newAllocRig(t, func(c *Config) {
		c.MaxInflight = 1 << 20
		c.RequestTimeout = time.Hour
	})
	agentNC, nc := net.Pipe()
	defer agentNC.Close()
	go io.Copy(io.Discard, agentNC) //nolint:errcheck
	tc := transport.NewConn(nc, transport.Options{})
	defer tc.Close()
	var last uint64
	issue := func() {
		if !s.issueOne(dev, tc, &last) {
			t.Fatal("issueOne reported a dead connection")
		}
	}
	issue() // warm up
	if n := testing.AllocsPerRun(1000, issue); n > 11 {
		t.Errorf("issueOne: %v allocs/request, want <= 11", n)
	}
	if got := s.Counters().RequestsIssued; got != 1002 {
		t.Fatalf("RequestsIssued = %d, want 1002", got)
	}
}
