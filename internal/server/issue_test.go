package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proverattest/internal/core"
	"proverattest/internal/crypto/cost"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// The issue path: the fast path engages for a prover whose full MAC takes
// longer than the attestation period, the wait for a full answer holds
// only the connection that sent the request, a refused answer ends the
// wait but not the request, and the issue loop keeps to its grid.

// session opens a device session on s naming id and serves it with a
// FastResponder over the daemon's golden image whose full measurement
// takes fullDelay. Each full MAC the prover computes is signalled on the
// returned channel; served, when not nil, is told of every answer sent,
// full or fast.
func session(t *testing.T, s *Server, id string, fullDelay time.Duration, served func(req *protocol.AttReq, fast bool)) <-chan struct{} {
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
	fr := protocol.NewFastResponder(key[:], s.cfg.Golden)
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
			fast := fr.RespondInto(&req, &resp)
			if !fast {
				fulls <- struct{}{}
				time.Sleep(fullDelay)
			}
			if tc.Send(resp.Encode()) != nil {
				return
			}
			if served != nil {
				served(&req, fast)
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
	fulls := session(t, s, "slow-dev", 3*period, nil)

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

// TestQuiescentFleetSpeedup: four clean devices on a fast-path daemon,
// so after each device's first full measurement every round rides the
// O(1) fast path. Each answer a device serves is priced in the paper's
// currency, the cycles the simulated anchor charges for it
// (internal/crypto/cost, the MSP430 at 24 MHz): an HMAC over the signed
// request and the measured memory for a full answer, over
// FastMACMessageLen bytes for a fast one. Every device must reach the fast
// path, and the mean full answer must cost at least 100 times the mean
// fast one.
func TestQuiescentFleetSpeedup(t *testing.T) {
	const devices = 4
	s := testServer(t, func(c *Config) {
		c.FastPath = true
		c.AttestEvery = 100 * time.Millisecond
		c.MaxInflight = 4 * devices
	})
	var (
		mu                     sync.Mutex
		fulls, fasts           [devices]int
		fullCycles, fastCycles cost.Cycles
	)
	for i := range devices {
		session(t, s, fmt.Sprintf("quiet-dev-%d", i), 0, func(req *protocol.AttReq, fast bool) {
			mu.Lock()
			defer mu.Unlock()
			if fast {
				fasts[i]++
				fastCycles += cost.HMACSHA1(protocol.FastMACMessageLen)
			} else {
				fulls[i]++
				fullCycles += cost.HMACSHA1(len(req.SignedBytes()) + len(s.cfg.Golden))
			}
		})
	}
	waitFor(t, 10*time.Second, "a fast round on every device", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, n := range fasts {
			if n == 0 {
				return false
			}
		}
		return true
	})

	mu.Lock()
	defer mu.Unlock()
	var full, fast int
	for i := range devices {
		full += fulls[i]
		fast += fasts[i]
	}
	if full == 0 {
		t.Fatal("the fleet served fast answers without a full one")
	}
	speedup := (float64(fullCycles) / float64(full)) / (float64(fastCycles) / float64(fast))
	if speedup < 100 {
		t.Fatalf("full answer costs %.1fx a fast one in modelled prover cycles, below the 100x floor", speedup)
	}
	t.Logf("%d full and %d fast answers; a full answer costs %.0fx a fast one in modelled prover cycles", full, fast, speedup)
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

	fulls := session(t, s, "shared-dev", 0, nil)
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

// TestSessionWindowBounded: a session that never answers holds at most
// maxSessionPending requests, each with its in-flight slot; every later
// tick is deferred.
func TestSessionWindowBounded(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.AttestEvery = 2 * time.Millisecond
		c.RequestTimeout = time.Hour
	})
	client, nc := tcpPair(t)
	defer client.Close()
	serveDevice(t, s, client, nc, "mute-dev")
	waitFor(t, 5*time.Second, "ticks deferred at a full window", func() bool { return s.m.issueDeferred.Load() >= 3 })
	if c := s.Counters(); c.RequestsIssued != maxSessionPending || s.Inflight() != maxSessionPending {
		t.Fatalf("issued %d, in flight %d; want the window's %d each", c.RequestsIssued, s.Inflight(), maxSessionPending)
	}
}

// TestEndedSessionReturnsItsSlots: when a session that never answered
// closes, it retires its requests and returns their in-flight slots at
// once, not one RequestTimeout later.
func TestEndedSessionReturnsItsSlots(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.AttestEvery = 2 * time.Millisecond
		c.RequestTimeout = time.Hour
	})
	client, nc := tcpPair(t)
	done := serveDevice(t, s, client, nc, "leaving-dev")
	waitFor(t, 5*time.Second, "requests in flight", func() bool { return s.Inflight() >= 4 })
	client.Close()
	<-done
	waitFor(t, 5*time.Second, "the ended session's slots back", func() bool { return s.Inflight() == 0 })
	if c := s.Counters(); c.RequestsAbandoned != c.RequestsIssued {
		t.Fatalf("abandoned %d of the %d requests issued, want all", c.RequestsAbandoned, c.RequestsIssued)
	}
}

// TestRequestExpiresBetweenRounds: with AttestEvery far longer than
// RequestTimeout, an unanswered request is still retired at its deadline:
// the issue loop wakes for it, not only for the next round.
func TestRequestExpiresBetweenRounds(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.AttestEvery = time.Hour
		c.RequestTimeout = 20 * time.Millisecond
	})
	client, nc := tcpPair(t)
	defer client.Close()
	serveDevice(t, s, client, nc, "slow-round-dev")
	waitFor(t, 5*time.Second, "the first request to expire", func() bool { return s.Counters().RequestsAbandoned == 1 })
	if c := s.Counters(); c.RequestsIssued != 1 || s.Inflight() != 0 {
		t.Fatalf("issued %d, in flight %d; want 1 and 0", c.RequestsIssued, s.Inflight())
	}
}

// TestMuteSessionsLeaveHonestRounds is the mute-session drill: eight
// sessions with distinct IDs send a hello and never answer, at the
// default MaxInflight. RequestTimeout is 100 periods, so without a
// per-session bound they would want 800 slots; with it they hold at most
// 128 of the 256, and an honest device completes within 10% as many
// rounds as on a daemon without them, run beside it. The run lasts past
// one RequestTimeout: with the fast path on, a mute session waits on its
// first, full request only until that request expires.
func TestMuteSessionsLeaveHonestRounds(t *testing.T) {
	const (
		period  = 2 * time.Millisecond
		timeout = 100 * period
		mute    = 8
	)
	for _, fast := range []bool{false, true} {
		t.Run(map[bool]string{false: "full", true: "fast"}[fast], func(t *testing.T) {
			daemon := func(mute int) *Server {
				s := testServer(t, func(c *Config) {
					c.FastPath = fast
					c.AttestEvery = period
					c.RequestTimeout = timeout
					c.Golden = make([]byte, 4096)
				})
				for i := 0; i < mute; i++ {
					client, nc := tcpPair(t)
					t.Cleanup(func() { client.Close() })
					serveDevice(t, s, client, nc, fmt.Sprintf("mute-dev-%d", i))
				}
				waitFor(t, 5*time.Second, "the mute sessions to open", func() bool {
					return s.Counters().ConnsAccepted == uint64(mute)
				})
				return s
			}
			quiet, loaded := daemon(0), daemon(mute)
			session(t, quiet, "honest-dev", 0, nil)
			session(t, loaded, "honest-dev", 0, nil)
			time.Sleep(timeout * 9 / 4)
			q, l := quiet.Counters(), loaded.Counters()
			t.Logf("honest rounds: %d alone, %d beside %d mute sessions (%d throttled, %d deferred, %d abandoned)",
				q.ResponsesAccepted, l.ResponsesAccepted, mute, l.InflightThrottled, loaded.m.issueDeferred.Load(), l.RequestsAbandoned)
			if l.ResponsesAccepted*10 < q.ResponsesAccepted*9 {
				t.Fatalf("the honest device completed %d rounds beside %d mute sessions, %d alone",
					l.ResponsesAccepted, mute, q.ResponsesAccepted)
			}
		})
	}
}

// TestConcurrentSessionsShareOneDevice: three sessions name one device
// and answer at once. Their issue and read loops share the device's
// verifier and the keyed MACs it and its authenticator hold, which are
// not safe for concurrent use; the device lock serialises them, and the
// ci.yml race step runs this test to keep it so. Every answer is
// accepted.
func TestConcurrentSessionsShareOneDevice(t *testing.T) {
	s := testServer(t, func(c *Config) { c.AttestEvery = 5 * time.Millisecond })
	for i := 0; i < 3; i++ {
		session(t, s, "shared-dev", 0, nil)
	}
	waitFor(t, 10*time.Second, "30 accepted rounds across the sessions", func() bool {
		return s.Counters().ResponsesAccepted >= 30
	})
	c := s.Counters()
	if rejected := c.ResponsesRejected + c.ResponsesUnsolicited; rejected != 0 {
		t.Fatalf("%d rejects across sessions of one device: %v", rejected, c)
	}
	if n := s.Devices(); n != 1 {
		t.Fatalf("Devices = %d, want 1", n)
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
		w              sessionWindow // the device session's issue state
		device, forger gateTally     // two sessions naming the device
		issued         int
	)

	// tick runs one round of the device session's issue loop and returns
	// the request sent, or nil when the round was deferred.
	tick := func() *protocol.AttReq {
		t.Helper()
		before := s.Counters().RequestsIssued
		if !s.issueOne(dev, tc, &w) {
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
		got := s.handleFrame(dev, resp.Encode())
		if got != want {
			t.Fatalf("answer to request %d: cause %d, want %d", resp.Nonce, got, want)
		}
		g.frames[got]++
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
			t.Fatalf("request %d sent while the device measures the full request %d", req.Nonce, w.last)
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

// TestBatchedAnswersNeverUnsolicited: four devices on a 1 ms grid, each
// served by a FastResponder that takes every request waiting in its
// socket at once and answers them all in one write, so each serve loop
// reads several genuine answers per socket read while its issue loop
// keeps issuing. The serve loop refuses a nonce above every nonce its
// device was issued without the device lock; a genuine answer never meets
// an older mark than its own request's, so no round is refused, whether
// as unsolicited, as a fast mismatch or otherwise.
func TestBatchedAnswersNeverUnsolicited(t *testing.T) {
	const devices = 4
	s := testServer(t, func(c *Config) {
		c.FastPath = true
		c.AttestEvery = time.Millisecond
		c.Golden = make([]byte, 64) // a first, full round as quick as the rest
	})
	var widest atomic.Int64 // the most answers one write carried
	for i := 0; i < devices; i++ {
		client, nc := tcpPair(t)
		t.Cleanup(func() { client.Close() })
		go s.HandleConn(nc)
		tc := transport.NewConn(client, transport.Options{})
		id := fmt.Sprintf("batch-dev-%d", i)
		hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: id}
		if err := tc.Send(hello.Encode()); err != nil {
			t.Fatal(err)
		}
		key := protocol.DeriveDeviceKey(testMaster, id)
		fr := protocol.NewFastResponder(key[:], s.cfg.Golden)
		go func() {
			var (
				req      protocol.AttReq
				resp     protocol.AttResp
				out, enc []byte
			)
			for {
				batch, err := tc.RecvBatch()
				if err != nil {
					return
				}
				out = out[:0]
				var n int64
				for frame, ok := batch.Next(); ok; frame, ok = batch.Next() {
					if protocol.DecodeAttReqInto(frame, &req) != nil {
						continue
					}
					fr.RespondInto(&req, &resp)
					enc = resp.AppendEncode(enc[:0])
					out = transport.AppendFrame(out, enc)
					n++
				}
				if _, err := client.Write(out); err != nil {
					return
				}
				if n > widest.Load() {
					widest.Store(n)
				}
				time.Sleep(3 * time.Millisecond) // let the next requests queue up
			}
		}()
	}

	waitFor(t, 15*time.Second, "2,000 accepted rounds or a refusal", func() bool {
		c := s.Counters()
		return c.ResponsesAccepted >= 2000 || c.ResponsesUnsolicited+c.ResponsesRejected != 0
	})
	c := s.Counters()
	if c.ResponsesUnsolicited != 0 || c.ResponsesFastRejected != 0 || c.ResponsesRejected != 0 {
		t.Fatalf("genuine answers refused: %d unsolicited, %d fast mismatches, %d rejected in all",
			c.ResponsesUnsolicited, c.ResponsesFastRejected, c.ResponsesRejected)
	}
	if c.ResponsesFast == 0 {
		t.Fatal("no round took the fast path")
	}
	if w := widest.Load(); w < 2 {
		t.Fatalf("each write carried at most %d answer, want several rounds answered at once", w)
	}
	t.Logf("%d rounds accepted, %d fast; up to %d answers per write", c.ResponsesAccepted, c.ResponsesFast, widest.Load())
}
