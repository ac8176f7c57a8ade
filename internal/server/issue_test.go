package server

import (
	"sync/atomic"
	"testing"
	"time"

	"proverattest/internal/core"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// The issue path: the fast path engages for a prover whose full MAC takes
// longer than the attestation period, the wait for a full answer holds
// only the connection that sent the request, a refused answer ends the
// wait but not the request, and the issue loop keeps to its grid.

// session opens a device session on s naming id and serves it with a
// FastResponder whose full measurement takes fullDelay. Each full MAC the
// prover computes is signalled on the returned channel.
func session(t *testing.T, s *Server, id string, fullDelay time.Duration) <-chan struct{} {
	t.Helper()
	client, nc := tcpPair(t)
	t.Cleanup(func() { client.Close() })
	go s.HandleConn(nc)
	tc := transport.NewConn(client, transport.Options{WriteTimeout: 2 * time.Second})
	hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: id}
	if err := tc.Send(hello.Encode()); err != nil {
		t.Fatal(err)
	}
	key := protocol.DeriveDeviceKey(testMaster, id)
	fr := protocol.NewFastResponder(key[:], core.GoldenRAMPattern())
	fulls := make(chan struct{}, 1024)
	go func() {
		var (
			req  protocol.AttReq
			resp protocol.AttResp
		)
		for {
			frame, err := tc.Recv()
			if err != nil {
				return
			}
			if protocol.DecodeAttReqInto(frame, &req) != nil {
				continue
			}
			if !fr.RespondInto(&req, &resp) {
				fulls <- struct{}{}
				time.Sleep(fullDelay)
			}
			if tc.Send(resp.Encode()) != nil {
				return
			}
		}
	}()
	return fulls
}

// TestSlowFullMACReachesFastPath: a prover whose full measurement takes
// three attestation periods. While its one full request is unanswered
// every tick is deferred, so the answer it sends is to the newest full
// request, the fast path engages on the next tick, and the prover pays
// exactly one full MAC with no reject anywhere. Without the deferral each
// tick issues another full request, the newest is never the one verified,
// and the fast path never engages.
func TestSlowFullMACReachesFastPath(t *testing.T) {
	const period = 10 * time.Millisecond
	s := testServer(t, func(c *Config) {
		c.FastPath = true
		c.AttestEvery = period
	})
	fulls := session(t, s, "slow-dev", 3*period)

	waitFor(t, 5*time.Second, "20 fast rounds", func() bool { return s.Counters().ResponsesFast >= 20 })
	c := s.Counters()
	if rejected := c.ResponsesRejected + c.ResponsesUnsolicited + c.UnknownFrames; rejected != 0 || c.RequestsAbandoned != 0 {
		t.Fatalf("%d rejects, %d abandoned requests on the way to the fast path: %v", rejected, c.RequestsAbandoned, c)
	}
	if n := len(fulls); n != 1 {
		t.Fatalf("prover computed %d full MACs, want exactly the one that armed the fast path", n)
	}
	deferred := s.m.issueDeferred.Load()
	if deferred == 0 {
		t.Fatal("no tick was deferred while the full MAC was outstanding")
	}
	t.Logf("%d fast rounds after one full MAC; %d ticks deferred", c.ResponsesFast, deferred)
}

// TestMuteSessionHoldsOnlyItself: a second session names the device and
// never answers. Its full request is the device's newest when the
// device's own session opens, and stays pending for the whole
// RequestTimeout; it holds the mute session's schedule, not the device's,
// which reaches the fast path at its own pace.
func TestMuteSessionHoldsOnlyItself(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.FastPath = true
		c.AttestEvery = 10 * time.Millisecond
		c.RequestTimeout = time.Minute
	})
	client, nc := tcpPair(t)
	defer client.Close()
	go s.HandleConn(nc)
	mute := transport.NewConn(client, transport.Options{})
	hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: "shared-dev"}
	if err := mute.Send(hello.Encode()); err != nil {
		t.Fatal(err)
	}
	var muteReqs atomic.Int64
	go func() {
		for {
			if _, err := mute.Recv(); err != nil {
				return
			}
			muteReqs.Add(1)
		}
	}()
	waitFor(t, 5*time.Second, "the mute session's first request", func() bool { return muteReqs.Load() == 1 })

	fulls := session(t, s, "shared-dev", 0)
	waitFor(t, 10*time.Second, "20 fast rounds on the device's own session", func() bool {
		return s.Counters().ResponsesFast >= 20
	})
	c := s.Counters()
	if rejected := c.ResponsesRejected + c.ResponsesUnsolicited; rejected != 0 {
		t.Fatalf("%d rejects on the device's session: %v", rejected, c)
	}
	if n := len(fulls); n != 1 {
		t.Fatalf("device computed %d full MACs, want 1", n)
	}
	if n := muteReqs.Load(); n != 1 {
		t.Fatalf("mute session was sent %d requests, want 1: it waits on its own unanswered full request", n)
	}
}

// TestRefusedAnswerKeepsTheRequest: an answer refused as a wrong
// measurement or as a fast MAC that does not match the record — sent here
// by a second session naming the device, ahead of the device's own —
// leaves its request pending with its in-flight slot, so the device's
// genuine answer is still accepted. The refusal only ends the issue
// loop's wait, so the next tick challenges the device with a full request
// at once.
func TestRefusedAnswerKeepsTheRequest(t *testing.T) {
	s, dev := newAllocRig(t, func(c *Config) { c.FastPath = true })
	client, nc := tcpPair(t)
	defer client.Close()
	tc := transport.NewConn(nc, transport.Options{})
	defer tc.Close()
	peer := transport.NewConn(client, transport.Options{ReadTimeout: 5 * time.Second})
	key := protocol.DeriveDeviceKey(testMaster, dev.id)
	fr := protocol.NewFastResponder(key[:], core.GoldenRAMPattern())
	var (
		last           uint64    // the device session's issue loop state
		device, forger gateTally // two sessions naming the device
		issued         int
	)

	// tick runs one round of the device session's issue loop and returns
	// the request sent, or nil when the round was deferred.
	tick := func() *protocol.AttReq {
		t.Helper()
		before := s.Counters().RequestsIssued
		if !s.issueOne(dev, tc, &last) {
			t.Fatal("issueOne reported a dead connection")
		}
		if s.Counters().RequestsIssued == before {
			return nil
		}
		issued++
		frame, err := peer.Recv()
		if err != nil {
			t.Fatal(err)
		}
		req, err := protocol.DecodeAttReq(frame)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	// measure is the device's answer, computed in the order it receives
	// requests; deliver sends it.
	measure := func(req *protocol.AttReq, wantFast bool) *protocol.AttResp {
		t.Helper()
		var resp protocol.AttResp
		if fast := fr.RespondInto(req, &resp); fast != wantFast {
			t.Fatalf("request %d answered fast=%v, want %v", req.Nonce, fast, wantFast)
		}
		return &resp
	}
	deliver := func(g *gateTally, resp *protocol.AttResp, want rejectCause) {
		t.Helper()
		if got := s.handleFrame(g, dev, nil, 0, resp.Encode()); got != want {
			t.Fatalf("answer to request %d: cause %d, want %d", resp.Nonce, got, want)
		}
	}
	forge := func(resp *protocol.AttResp, want rejectCause) {
		t.Helper()
		deliver(&forger, resp, want)
		if !dev.v.IsPending(resp.Nonce) {
			t.Fatal("a refused answer retired its request")
		}
		if n := s.Inflight(); n != 1 {
			t.Fatalf("%d in-flight slots after a refused answer, want the refused request's 1", n)
		}
	}
	deferred := func() {
		t.Helper()
		if req := tick(); req != nil {
			t.Fatalf("request %d sent while the device measures the full request %d", req.Nonce, last)
		}
	}

	// A wrong full measurement.
	req := tick()
	if req == nil || req.AllowFast {
		t.Fatal("first request not sent as a full request")
	}
	genuine := measure(req, false)
	deferred()
	forge(&protocol.AttResp{Nonce: req.Nonce, Counter: req.Counter}, causeBadMeasurement)
	next := tick()
	if next == nil || next.AllowFast {
		t.Fatal("no full request right after a refused answer")
	}
	genuineNext := measure(next, false)
	deliver(&device, genuine, causeNone)
	deferred()
	deliver(&device, genuineNext, causeNone)
	req = tick()
	if req == nil || !req.AllowFast {
		t.Fatal("fast path not granted once the newest full request was verified")
	}
	deliver(&device, measure(req, true), causeNone)

	// A fast MAC that does not match the record.
	req = tick()
	if req == nil || !req.AllowFast {
		t.Fatal("armed device's request withheld fast permission")
	}
	genuine = measure(req, true)
	forge(&protocol.AttResp{Nonce: req.Nonce, Counter: req.Counter, Fast: true, Epoch: 1}, causeFastMismatch)
	next = tick()
	if next == nil || next.AllowFast {
		t.Fatal("no full request right after a fast mismatch")
	}
	genuineNext = measure(next, false)
	deliver(&device, genuine, causeNone)
	deliver(&device, genuineNext, causeNone)

	s.publish(&device)
	s.publish(&forger)
	c := s.Counters()
	if c.ResponsesAccepted != uint64(issued) || c.ResponsesMismatched != 1 || c.ResponsesFastRejected != 1 ||
		c.RequestsAbandoned != 0 || s.Inflight() != 0 {
		t.Fatalf("accepted=%d of %d issued, mismatched=%d fast-rejected=%d abandoned=%d inflight=%d; want every request accepted, 1/1/0/0",
			c.ResponsesAccepted, issued, c.ResponsesMismatched, c.ResponsesFastRejected, c.RequestsAbandoned, s.Inflight())
	}
	if got := s.m.issueDeferred.Load(); got != 2 {
		t.Fatalf("%d rounds deferred, want 2", got)
	}
}

// TestDueRoundsKeepsTheGrid checks the issue schedule's arithmetic over
// synthetic wake times: round k is due k periods after the start, a late
// wake sends the rounds it is late for (at most maxCatchUp), and a wake
// before the next round is due sends nothing.
func TestDueRoundsKeepsTheGrid(t *testing.T) {
	const p = time.Millisecond
	for _, tc := range []struct {
		name     string
		next     int64
		elapsed  time.Duration
		send     int
		upcoming int64
	}{
		{"on time", 1, p, 1, 2},
		{"late within the period", 1, p + 9*p/10, 1, 2},
		{"a whole period late", 1, 2*p + p/10, 2, 3},
		{"far behind", 1, 20 * p, maxCatchUp, 21},
		{"early wake", 3, 3*p - 1, 0, 3},
		{"exactly due", 3, 3 * p, 1, 4},
	} {
		send, upcoming := dueRounds(tc.next, tc.elapsed, p)
		if send != tc.send || upcoming != tc.upcoming {
			t.Errorf("%s: dueRounds(%d, %v) = %d, %d; want %d, %d",
				tc.name, tc.next, tc.elapsed, send, upcoming, tc.send, tc.upcoming)
		}
	}

	// A loop that sleeps until the next round and wakes up to 7.7
	// periods late sends every round: lateness under maxCatchUp periods
	// costs none.
	lateness := []time.Duration{0, 4 * p / 10, 13 * p / 10, p / 10, 77 * p / 10, 6 * p / 10, 29 * p / 10}
	sent, next := 1, int64(1)
	var elapsed time.Duration
	for i := 0; i < 3000; i++ {
		elapsed = time.Duration(next)*p + lateness[i%len(lateness)]
		var n int
		n, next = dueRounds(next, elapsed, p)
		sent += n
	}
	if due := int(elapsed/p) + 1; sent != due {
		t.Fatalf("sent %d rounds of the %d due by %v", sent, due, elapsed)
	}

	// A stall of more than maxCatchUp periods sends maxCatchUp rounds
	// and skips the older ones; the grid resumes on time after it.
	n, next := dueRounds(10, 30*p+p/2, p)
	if n != maxCatchUp || next != 31 {
		t.Fatalf("after a stall: sent %d, next %d; want %d, 31", n, next, maxCatchUp)
	}
	if n, next = dueRounds(next, 31*p, p); n != 1 || next != 32 {
		t.Fatalf("first wake after the stall: sent %d, next %d; want 1, 32", n, next)
	}
}
