package server

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// The serve loop's tally (gateTally) and the transport's per-Conn counts
// publish once per socket read and when the connection ends: exact
// whenever the connection waits on its socket, and moving while a flood
// keeps it busy.

// TestGateCountsExactAtIdle: K mixed hostile frames in one write, read in
// several socket reads. Once the serve loop waits on its socket again,
// Counters, a /metrics scrape and the transport counters all show exactly
// K frames with the 1:1:1 cause split, one gate sample per reject and K
// admissions for the device's tier.
func TestGateCountsExactAtIdle(t *testing.T) {
	s := testServer(t, func(c *Config) { c.AttestEvery = time.Hour })
	client, nc := tcpPair(t)
	defer client.Close()
	serveDevice(t, s, client, nc, "idle-dev")
	waitFor(t, 5*time.Second, "the session to open", func() bool { return s.Counters().ConnsAccepted == 1 })

	const k = 3 * 1000 // about 29 KiB: several 4 KiB reads
	wire, _ := gateMix(k)
	if _, err := client.Write(wire); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "every frame published", func() bool { return s.Counters().FramesIn >= k })

	c := s.Counters()
	if c.FramesIn != k || c.ResponsesUnsolicited != k/3 || c.ResponsesMalformed != k/3 || c.UnknownFrames != k/3 {
		t.Fatalf("counters: frames=%d unsolicited=%d malformed=%d unknown=%d, want %d and %d each",
			c.FramesIn, c.ResponsesUnsolicited, c.ResponsesMalformed, c.UnknownFrames, k, k/3)
	}
	hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: "idle-dev"}
	expectSeries(t, s, map[string]float64{
		"attestd_frames_total":                              k,
		`attestd_rejects_total{cause="unsolicited"}`:        k / 3,
		`attestd_rejects_total{cause="malformed_response"}`: k / 3,
		`attestd_rejects_total{cause="unknown_kind"}`:       k / 3,
		`attestd_tier_admitted_total{tier="default"}`:       k,
		"attestd_gate_seconds_count":                        k,
		`transport_frames_total{dir="in"}`:                  k + 1, // and the hello
		`transport_bytes_total{dir="in"}`:                   float64(len(wire) + len(transport.AppendFrame(nil, hello.Encode()))),
	})
}

// TestGateCountsAdvanceUnderSustainedFlood: a writer keeps the socket
// full, so the serve loop never waits, and attestd_frames_total still
// advances across each of five windows while the writer runs; once it
// stops, the count is exact. A window ends when the writer has completed
// more bytes than the two socket buffers and two of the serve loop's
// reads can hold, not after a span of wall time: the serve loop must then
// have read, served and published at least once inside it, however long a
// stall of the whole test process makes it last.
func TestGateCountsAdvanceUnderSustainedFlood(t *testing.T) {
	s := testServer(t, func(c *Config) { c.AttestEvery = time.Hour })
	client, nc := tcpPair(t)
	defer client.Close()
	// Fix both buffers: unset, the kernel may grow them to megabytes.
	// Linux keeps twice the size asked for.
	const sockBuf = 64 << 10
	if err := client.(*net.TCPConn).SetWriteBuffer(sockBuf); err != nil {
		t.Fatal(err)
	}
	if err := nc.(*net.TCPConn).SetReadBuffer(sockBuf); err != nil {
		t.Fatal(err)
	}
	serveDevice(t, s, client, nc, "flood-dev")
	waitFor(t, 5*time.Second, "the session to open", func() bool { return s.Counters().ConnsAccepted == 1 })

	const perWrite = 255 // a whole number of 1:1:1 cycles
	wire, _ := gateMix(perWrite)
	const maxRead = 64 << 10 // the transport's largest read
	perWindow := int64((2*2*sockBuf+2*maxRead)/len(wire) + 1)
	var writes atomic.Int64
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := client.Write(wire); err != nil {
				done <- err
				return
			}
			writes.Add(1)
		}
	}()
	for i, last := 0, s.Counters().FramesIn; i < 5; i++ {
		end := writes.Load() + perWindow
		waitFor(t, 10*time.Second, fmt.Sprintf("window %d: %d writes (the serve loop stopped reading)", i, perWindow),
			func() bool { return writes.Load() >= end })
		now := s.Counters().FramesIn
		if now <= last {
			t.Fatalf("window %d: attestd_frames_total stuck at %d while the writer wrote %d times", i, now, perWindow)
		}
		last = now
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	sent := uint64(writes.Load()) * perWrite
	waitFor(t, 5*time.Second, "every frame published", func() bool { return s.Counters().FramesIn >= sent })
	if c := s.Counters(); c.FramesIn != sent || c.UnknownFrames != sent/3 {
		t.Fatalf("after the flood: frames=%d unknown=%d, want %d and %d", c.FramesIn, c.UnknownFrames, sent, sent/3)
	}
}
