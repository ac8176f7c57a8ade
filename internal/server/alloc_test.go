package server

import (
	"bytes"
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
// below are zero today). Each pin serves its frame through the serving
// entry point, serveRead, as a socket read of one frame: the receive,
// the admission chain resolved at the read's reading, classify, dispatch,
// the gate sample and the publish.

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

// readConn is a net.Conn whose reads come from r.
type readConn struct {
	net.Conn
	r *bytes.Reader
}

func (c readConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// readRig serves frames to one device as socket reads, as the serve loop
// does: one receive returns a read's frames as a batch, and serveRead
// serves it with the rig's connection bucket and tally, which records
// attestd_gate_seconds samples. Once a read has grown the rig's wire
// buffer, a read of no more bytes allocates nothing.
type readRig struct {
	s    *Server
	dev  *deviceState
	conn *tokenBucket
	g    gateTally
	wire []byte
	r    bytes.Reader
	tc   *transport.Conn
}

func newReadRig(s *Server, dev *deviceState, conn *tokenBucket) *readRig {
	rig := &readRig{s: s, dev: dev, conn: conn, g: gateTally{lat: s.m.gateLat.Tally()}}
	rig.tc = transport.NewConn(readConn{r: &rig.r}, transport.Options{})
	return rig
}

// serve serves frames as one socket read. They must fit the connection's
// first read (4 KiB).
func (rig *readRig) serve(tb testing.TB, frames ...[]byte) {
	tb.Helper()
	rig.wire = rig.wire[:0]
	for _, f := range frames {
		rig.wire = transport.AppendFrame(rig.wire, f)
	}
	rig.r.Reset(rig.wire)
	batch, err := rig.tc.RecvBatch()
	if err != nil {
		tb.Fatal(err)
	}
	rig.s.serveRead(&rig.g, rig.dev, rig.conn, batch)
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
	rig := newReadRig(s, dev, nil)
	allocsPerFrame(t, "unknown frame", 0, func() { rig.serve(t, frame) })
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
	rig := newReadRig(s, dev, bucket)
	allocsPerFrame(t, "rate-limited frame", 0, func() { rig.serve(t, frame) })
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
	rig := newReadRig(s, dev, nil)
	allocsPerFrame(t, "tier-limited frame", 0, func() { rig.serve(t, frame) })
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
	rig := newReadRig(s, dev, nil)
	allocsPerFrame(t, "daemon-rate frame", 0, func() { rig.serve(t, frame) })
	if c := s.Counters(); c.DaemonRateLimited == 0 || c.DaemonRateLimited+c.UnknownFrames != c.FramesIn {
		t.Fatalf("daemon-rate frames not counted: %v", c)
	}
}

// unsolicitedResp is a well-formed response that answers no outstanding
// nonce, and whether its refusal takes the device lock.
type unsolicitedResp struct {
	name   string
	frame  []byte
	locked bool
}

// unsolicitedResps issues dev one request and abandons it, then returns
// the two unsolicited responses the gate refuses on different paths: one
// naming a nonce the device was never issued, refused by its nonce after
// the strict checks, before the rest is decoded and without the device
// lock, and one naming the abandoned nonce, decoded and refused by the
// pending-map miss under the lock.
func unsolicitedResps(tb testing.TB, dev *deviceState) []unsolicitedResp {
	tb.Helper()
	req, err := dev.v.NewRequest()
	if err != nil {
		tb.Fatal(err)
	}
	dev.v.Abandon(req.Nonce)
	return []unsolicitedResp{
		{"never_issued", (&protocol.AttResp{Nonce: 0xFEED}).Encode(), false},
		{"abandoned", (&protocol.AttResp{Nonce: req.Nonce, Counter: req.Counter}).Encode(), true},
	}
}

func TestHandleFrameUnsolicitedRespZeroAllocs(t *testing.T) {
	s, dev := newAllocRig(t)
	// A well-formed response answering no outstanding nonce: the strict
	// checks and the nonce, then a refusal with a static error, either at
	// once or after a decode-into and the map miss under the device lock.
	for _, u := range unsolicitedResps(t, dev) {
		t.Run(u.name, func(t *testing.T) {
			before := s.Counters().ResponsesUnsolicited
			checked := dev.v.Unsolicited
			rig := newReadRig(s, dev, nil)
			allocsPerFrame(t, "unsolicited response", 0, func() { rig.serve(t, u.frame) })
			if s.Counters().ResponsesUnsolicited == before {
				t.Fatal("unsolicited responses not counted")
			}
			// The verifier counts only the refusals its own lookup makes.
			if locked := dev.v.Unsolicited != checked; locked != u.locked {
				t.Fatalf("refusal took the locked lookup: %v, want %v", locked, u.locked)
			}
		})
	}
}

// TestUnissuedRefusedWithoutDeviceLock: a response naming a nonce the
// device was never issued is refused while another goroutine holds the
// device's lock. A refusal that waited for the lock would return only
// once the lock is released, after the deadline.
func TestUnissuedRefusedWithoutDeviceLock(t *testing.T) {
	s, dev := newAllocRig(t)
	if _, err := dev.v.NewRequest(); err != nil {
		t.Fatal(err)
	}
	frame := (&protocol.AttResp{Nonce: 2}).Encode()
	done := make(chan rejectCause, 1)
	dev.mu.Lock()
	go func() { done <- s.handleFrame(dev, frame) }()
	select {
	case cause := <-done:
		dev.mu.Unlock()
		if cause != causeUnsolicited {
			t.Fatalf("cause %d, want causeUnsolicited (%d)", cause, causeUnsolicited)
		}
	case <-time.After(5 * time.Second):
		dev.mu.Unlock()
		<-done
		t.Fatal("the refusal of a never-issued nonce waited on the device lock")
	}
}

func TestHandleFrameMalformedRespZeroAllocs(t *testing.T) {
	s, dev := newAllocRig(t)
	// Classifies as a response (magic + version) but fails strict framing.
	frame := (&protocol.AttResp{Nonce: 1}).Encode()[:respTruncated]
	rig := newReadRig(s, dev, nil)
	allocsPerFrame(t, "malformed response", 0, func() { rig.serve(t, frame) })
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
	rig := newReadRig(s, dev, nil)
	allocsPerFrame(t, "malformed stats", 0, func() { rig.serve(t, frame) })
	c := s.Counters()
	if c.MalformedFrames == 0 {
		t.Fatal("malformed stats frames not counted as malformed")
	}
	if c.UnknownFrames != 0 || c.ResponsesRejected != 0 || c.StatsReports != 0 {
		t.Fatalf("malformed stats conflated with another cause: %v", c)
	}
}

// TestHandleFrameFastAcceptZeroAllocs pins the quiescent-fleet steady
// state: an accepted O(1) fast response — decode-into, memoized compare
// and retire under the device lock — must not allocate, since a clean fleet
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
	s.handleFrame(dev, resp.Encode())
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
	rig := newReadRig(s, dev, nil)
	i := 0
	allocsPerFrame(t, "fast accept", 0, func() { rig.serve(t, frames[i]); i++ })
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
// outstanding nonce — decode-into, then a static error. never_issued is
// the blind flooder's frame, refused without the device lock; abandoned
// names a nonce the device was issued, refused by the map miss under it.
func BenchmarkHandleFrameUnsolicited(b *testing.B) {
	s, dev := newAllocRig(b)
	for _, u := range unsolicitedResps(b, dev) {
		b.Run(u.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.handleFrame(dev, u.frame)
			}
		})
	}
}

func TestHandleFrameStatsWithinBudget(t *testing.T) {
	s, dev := newAllocRig(t)
	frame := (&protocol.StatsReport{Received: 1}).Encode()
	// The agent sends a stats frame after every reply: the report is
	// decoded on the stack and copied into the device entry.
	rig := newReadRig(s, dev, nil)
	allocsPerFrame(t, "stats frame", 0, func() { rig.serve(t, frame) })
	if !dev.haveLast || dev.lastStats.Received != 1 {
		t.Fatal("stats report not retained")
	}
}

// TestIssueOneAllocs pins the honest issue path per request: retire the
// session's answered and expired requests, sign and encode into the
// session's buffer, send. Each measured request is then answered (its
// response precomputed and served through handleFrame) or abandoned (the
// session's next wake, at the request's deadline, retires it). Either way
// the round costs at most the one object HMACAuth.Sign returns. A drained
// pipe stands in for the agent.
func TestIssueOneAllocs(t *testing.T) {
	golden := make([]byte, 4096)
	for _, answered := range []bool{true, false} {
		name := map[bool]string{true: "answered", false: "abandoned"}[answered]
		t.Run(name, func(t *testing.T) {
			s, dev := newAllocRig(t, func(c *Config) { c.Golden = golden })
			agentNC, nc := net.Pipe()
			defer agentNC.Close()
			go io.Copy(io.Discard, agentNC) //nolint:errcheck
			tc := transport.NewConn(nc, transport.Options{})
			defer tc.Close()

			// One warm-up round, AllocsPerRun's own and the 1000 measured.
			const rounds = 1002
			key := protocol.DeriveDeviceKey(testMaster, dev.id)
			answers := make([][]byte, rounds)
			for i := range answers {
				n := uint64(i + 1) // nonces and counters both start at 1
				req := protocol.AttReq{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, Nonce: n, Counter: n}
				answers[i] = (&protocol.AttResp{Nonce: n, Counter: n, Measurement: protocol.Measure(key[:], &req, golden)}).Encode()
			}
			var (
				w sessionWindow
				i int
			)
			round := func() {
				if !s.issueOne(dev, tc, &w) || w.n != 1 {
					t.Fatalf("round %d: issueOne sent nothing (%d pending in the window)", i, w.n)
				}
				if answered {
					if cause := s.handleFrame(dev, answers[i]); cause != causeNone {
						t.Fatalf("round %d: answer refused, cause %d", i, cause)
					}
				}
				s.sweep(dev, &w, w.sent[w.n-1].deadline)
				i++
			}
			round() // warm up
			if n := testing.AllocsPerRun(1000, round); n > 1 {
				t.Errorf("issueOne: %v allocs/request, want <= 1", n)
			}
			c := s.Counters()
			if c.RequestsIssued != rounds || s.Inflight() != 0 {
				t.Fatalf("RequestsIssued = %d, Inflight = %d; want %d and 0", c.RequestsIssued, s.Inflight(), rounds)
			}
			want := map[bool]uint64{true: 0, false: rounds}[answered]
			if c.ResponsesAccepted != rounds-want || c.RequestsAbandoned != want {
				t.Fatalf("accepted %d, abandoned %d of %d requests", c.ResponsesAccepted, c.RequestsAbandoned, rounds)
			}
		})
	}
}

// TestHandleFrameUnsolicitedCommandRespZeroAllocs covers the command
// half of the attacker-reachable gate: a well-formed command response
// answering no outstanding command is decoded in place, missed in the
// pending map and refused with a static error before any MAC work.
func TestHandleFrameUnsolicitedCommandRespZeroAllocs(t *testing.T) {
	s, dev := newAllocRig(t)
	frame := (&protocol.CommandResp{Kind: protocol.CmdClockSync, Nonce: 0xFEED, Tag: make([]byte, 20)}).Encode()
	rig := newReadRig(s, dev, nil)
	allocsPerFrame(t, "unsolicited command response", 0, func() { rig.serve(t, frame) })
	if s.Counters().ResponsesUnsolicited == 0 {
		t.Fatal("unsolicited command responses not counted")
	}
}

// TestHandleFrameFullAcceptZeroAllocs pins the full-MAC verdict: the
// expected measurement is computed on the verifier's held MAC, so an
// accepted full response costs the hash and no allocation.
func TestHandleFrameFullAcceptZeroAllocs(t *testing.T) {
	golden := make([]byte, 4096)
	s, dev := newAllocRig(t, func(c *Config) { c.Golden = golden })
	key := protocol.DeriveDeviceKey(testMaster, dev.id)
	const rounds = 1100
	frames := make([][]byte, 0, rounds)
	for i := 0; i < rounds; i++ {
		req, err := dev.v.NewRequest()
		if err != nil {
			t.Fatal(err)
		}
		resp := protocol.AttResp{Nonce: req.Nonce, Counter: req.Counter, Measurement: protocol.Measure(key[:], req, golden)}
		frames = append(frames, resp.Encode())
	}
	rig := newReadRig(s, dev, nil)
	i := 0
	allocsPerFrame(t, "full accept", 0, func() { rig.serve(t, frames[i]); i++ })
	if c := s.Counters(); c.ResponsesAccepted != uint64(i) || c.ResponsesRejected != 0 {
		t.Fatalf("after %d full frames: %+v", i, c)
	}
}
