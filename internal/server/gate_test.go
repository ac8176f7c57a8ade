package server

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// The serve loop's read path and gate clock, exercised over the wire: how
// often it arms the socket's read deadline, that a stalled peer is still
// evicted, and that attestd_gate_seconds observes exactly the rejects.

// countingConn counts the reads, the bytes they returned and the
// read-deadline arms on a net.Conn. A read counts from its call, so one
// blocked in the kernel is counted.
type countingConn struct {
	net.Conn
	reads, bytes, deadlines atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) SetReadDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetReadDeadline(t)
}

// tcpPair returns both ends of a loopback TCP connection.
func tcpPair(tb testing.TB) (client, server net.Conn) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	server, err = ln.Accept()
	if err != nil {
		client.Close()
		tb.Fatal(err)
	}
	return client, server
}

// serveDevice hands nc to s.HandleConn, sends deviceID's hello from
// client and drains whatever the daemon writes back. The returned channel
// closes when HandleConn returns.
func serveDevice(tb testing.TB, s *Server, client, nc net.Conn, deviceID string) <-chan struct{} {
	tb.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.HandleConn(nc)
	}()
	hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: deviceID}
	if err := transport.WriteFrame(client, hello.Encode(), 0); err != nil {
		tb.Fatal(err)
	}
	go io.Copy(io.Discard, client) //nolint:errcheck
	return done
}

// floodSession dials addr and opens a session naming deviceID in tier
// class tierClass. It never answers: whatever the daemon sends is drained
// unread, so the daemon's writes never back up. The connection closes
// when the test ends.
func floodSession(tb testing.TB, addr, deviceID string, tierClass uint8) *transport.Conn {
	tb.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tc := transport.NewConn(nc, transport.Options{
		ReadTimeout:  250 * time.Millisecond,
		WriteTimeout: 10 * time.Second,
	})
	tb.Cleanup(func() { tc.Close() })
	hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, Tier: tierClass, DeviceID: deviceID}
	if err := tc.Send(hello.Encode()); err != nil {
		tb.Fatal(err)
	}
	go func() {
		for {
			if _, err := tc.RecvShared(); err != nil && !transport.IsTimeout(err) {
				return
			}
		}
	}()
	return tc
}

// floodPaced sends hostile frames on tc at rate frames/s until deadline,
// one frame per send, sleeping off any lead over the pace after each:
// responses that answer no outstanding nonce alternate with malformed
// frames. It returns the frames sent.
func floodPaced(tc *transport.Conn, rate float64, deadline time.Time) int64 {
	interval := time.Duration(float64(time.Second) / rate)
	junk := []byte{0x41, 0x50, 0xFF, 0x00, 0x00} // response magic, bogus version
	var buf []byte
	var sent int64
	next := time.Now()
	for n := uint64(0); time.Now().Before(deadline); n++ {
		if n%2 == 0 {
			forged := protocol.AttResp{Nonce: 3_000_000_019 + n, Counter: n}
			buf = forged.AppendEncode(buf[:0])
		} else {
			buf = append(buf[:0], junk...)
		}
		if tc.Send(buf) != nil {
			return sent
		}
		sent++
		next = next.Add(interval)
		if sleep := time.Until(next); sleep > 0 {
			time.Sleep(sleep)
		}
	}
	return sent
}

// gateMix returns n frames of the 1:1:1 hostile mix that dies at the
// daemon's gate — unsolicited responses, malformed responses and frames of
// no known kind — encoded as one write, plus the byte offset after each
// whole frame (ends[k] is the length of the first k+1 frames).
func gateMix(n int) (wire []byte, ends []int) {
	unsolicited := (&protocol.AttResp{Nonce: 0xFEED}).Encode()
	malformed := unsolicited[:respTruncated]
	unknown := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	for i := 0; i < n; i++ {
		wire = transport.AppendFrame(wire, [][]byte{unsolicited, malformed, unknown}[i%3])
		ends = append(ends, len(wire))
	}
	return wire, ends
}

// TestServeArmsDeadlinePerReadNotPerFrame: a 256-frame write reaches the
// serve loop in a few socket reads, and only a Recv that has to read arms
// the read deadline — at most one arm per read, not one per frame.
func TestServeArmsDeadlinePerReadNotPerFrame(t *testing.T) {
	s := testServer(t, func(c *Config) { c.AttestEvery = time.Hour })
	client, nc := tcpPair(t)
	defer client.Close()
	cc := &countingConn{Conn: nc}
	serveDevice(t, s, client, cc, "deadline-dev")

	const frames = 256
	wire, _ := gateMix(frames)
	if _, err := client.Write(wire); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "every frame served", func() bool {
		return s.Counters().FramesIn == frames
	})
	reads, deadlines := cc.reads.Load(), cc.deadlines.Load()
	if deadlines > reads {
		t.Fatalf("%d read deadlines armed for %d reads (%d frames), want at most one per read",
			deadlines, reads, frames)
	}
	t.Logf("%d frames: %d reads, %d read deadlines", frames, reads, deadlines)
}

// TestServeEvictsMidFrameStall: frames already buffered do not keep a
// stalled peer alive. Ten whole frames and the head of an eleventh arrive
// in one write; the ten are served, and the wait for the rest of the
// eleventh is bounded by ReadTimeout, whose expiry evicts the peer.
func TestServeEvictsMidFrameStall(t *testing.T) {
	const readTimeout = 100 * time.Millisecond
	s := testServer(t, func(c *Config) {
		c.AttestEvery = time.Hour
		c.ReadTimeout = readTimeout
	})
	client, nc := tcpPair(t)
	defer client.Close()
	done := serveDevice(t, s, client, nc, "stall-dev")

	wire, ends := gateMix(11)
	stalled := time.Now()
	if _, err := client.Write(wire[:ends[9]+3]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("peer stalled mid-frame was never evicted")
	}
	if waited := time.Since(stalled); waited < readTimeout {
		t.Fatalf("evicted after %v, before the %v read timeout", waited, readTimeout)
	}
	if got := s.Counters().FramesIn; got != 10 {
		t.Fatalf("served %d frames, want the 10 whole ones", got)
	}
	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := parsePromText(t, buf.String())[`attestd_evictions_total{cause="read_stall"}`]; got != 1 {
		t.Fatalf(`attestd_evictions_total{cause="read_stall"} = %v, want 1`, got)
	}
}

// TestGateSecondsObservesEveryRejectOnly: after a mixed flood over the
// wire — an honest agent next to an attacker whose frames die at six
// different gate stages — attestd_gate_seconds has observed exactly one
// sample per reject, and none for the accepted responses and stats
// reports.
func TestGateSecondsObservesEveryRejectOnly(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.AttestEvery = 20 * time.Millisecond
		c.PerConnRatePerSec = 2000
		c.PerConnBurst = 300
	})

	agentNC, nc := tcpPair(t)
	defer agentNC.Close()
	go s.HandleConn(nc)
	a := testAgent(t, "gate-honest")
	ctx, stopAgent := context.WithCancel(context.Background())
	defer stopAgent()
	agentDone := make(chan struct{})
	go func() {
		defer close(agentDone)
		a.Serve(ctx, agentNC) //nolint:errcheck
	}()

	// The attacker answers every request it is issued with a wrong
	// measurement, and floods the rest of the mix around it.
	atk, nc2 := tcpPair(t)
	defer atk.Close()
	go s.HandleConn(nc2)
	tc := transport.NewConn(atk, transport.Options{WriteTimeout: 5 * time.Second})
	hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: "gate-attacker"}
	if err := tc.Send(hello.Encode()); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			frame, err := tc.Recv()
			if err != nil {
				return
			}
			req, err := protocol.DecodeAttReq(frame)
			if err != nil {
				continue
			}
			bad := &protocol.AttResp{Nonce: req.Nonce, Counter: req.Counter}
			if tc.Send(bad.Encode()) != nil {
				return
			}
		}
	}()
	stats := (&protocol.StatsReport{Received: 1}).Encode()
	wire, _ := gateMix(255)
	for i := 0; i < 4; i++ {
		if _, err := atk.Write(wire); err != nil {
			t.Fatal(err)
		}
		if err := tc.Send(stats[:len(stats)-1]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
	}

	waitFor(t, 15*time.Second, "accepted honest rounds and rejects of every cause", func() bool {
		c := s.Counters()
		return c.ResponsesAccepted >= 2 && c.StatsReports >= 2 && c.ResponsesMismatched >= 1 &&
			c.RateLimited >= 1 && c.ResponsesUnsolicited >= 1 && c.ResponsesMalformed >= 1 &&
			c.UnknownFrames >= 1 && c.MalformedFrames > c.ResponsesMalformed
	})
	// Stop the traffic and wait out every serve loop, so no frame is
	// between its reject count and its observation when the series are read.
	stopAgent()
	<-agentDone
	s.Close()

	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series := parsePromText(t, buf.String())
	var rejects float64
	for key, v := range series {
		if strings.HasPrefix(key, "attestd_rejects_total{") {
			rejects += v
		}
	}
	observed := series["attestd_gate_seconds_count"]
	if observed != rejects {
		t.Fatalf("attestd_gate_seconds_count = %v, want the %v gate rejects", observed, rejects)
	}
	c := s.Counters()
	if served := float64(c.ResponsesAccepted + c.StatsReports); observed+served != float64(c.FramesIn) {
		t.Fatalf("%v observed + %v accepted frames != %d frames in", observed, served, c.FramesIn)
	}
	t.Logf("%v rejects observed, %d responses and %d stats reports accepted unobserved",
		observed, c.ResponsesAccepted, c.StatsReports)
}

// TestGateSecondsOneSamplePerRejectInARead: one socket read of N frames,
// R of them rejects, adds exactly R attestd_gate_seconds samples. Each is
// the read's serve time divided by N, so together they sum to at most the
// time the read took to serve.
func TestGateSecondsOneSamplePerRejectInARead(t *testing.T) {
	s := testServer(t, func(c *Config) { c.AttestEvery = time.Hour })
	client, nc := net.Pipe()
	defer client.Close()
	serveDevice(t, s, client, nc, "batch-dev")
	waitFor(t, 5*time.Second, "the session to open", func() bool { return s.Counters().ConnsAccepted == 1 })

	// Every fourth frame is a stats report, which the gate accepts; the
	// rest are the hostile mix.
	const frames, rejects = 40, 30
	stats := (&protocol.StatsReport{Received: 1}).Encode()
	mix, ends := gateMix(rejects)
	var wire []byte
	for i, k := 0, 0; i < frames; i++ {
		if i%4 == 3 {
			wire = transport.AppendFrame(wire, stats)
			continue
		}
		from := 0
		if k > 0 {
			from = ends[k-1]
		}
		wire = append(wire, mix[from:ends[k]]...)
		k++
	}
	// net.Pipe hands a write to a single read when the reader's buffer
	// holds it, so the serve loop takes these frames in as one batch.
	if len(wire) > 4096 {
		t.Fatalf("%d-byte write does not fit one 4 KiB read", len(wire))
	}
	began := time.Now()
	if _, err := client.Write(wire); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the read to be served", func() bool { return s.Counters().FramesIn == frames })
	window := time.Since(began)

	c := s.Counters()
	if got := c.ResponsesUnsolicited + c.ResponsesMalformed + c.UnknownFrames; got != rejects || c.StatsReports != frames-rejects {
		t.Fatalf("%d rejects and %d stats reports served, want %d and %d", got, c.StatsReports, rejects, frames-rejects)
	}
	h := s.m.gateLat
	if h.Count() != rejects {
		t.Fatalf("attestd_gate_seconds_count = %d, want one sample per reject: %d", h.Count(), rejects)
	}
	if sum := h.Sum(); sum > window || sum%rejects != 0 {
		t.Fatalf("attestd_gate_seconds_sum = %v over %d equal samples, want a multiple of %d at most the %v the read was served within",
			sum, rejects, rejects, window)
	}
	t.Logf("%d samples summing to %v, read served within %v", h.Count(), h.Sum(), window)
}
