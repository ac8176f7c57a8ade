package server

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// The serve loop's tally (gateTally) and the transport's per-Conn counts
// publish whenever the read buffer runs dry and when the connection ends:
// exact whenever the connection waits on its socket, and moving while a
// flood keeps it busy.

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
	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series := parsePromText(t, buf.String())
	hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: "idle-dev"}
	for key, want := range map[string]float64{
		"attestd_frames_total":                              k,
		`attestd_rejects_total{cause="unsolicited"}`:        k / 3,
		`attestd_rejects_total{cause="malformed_response"}`: k / 3,
		`attestd_rejects_total{cause="unknown_kind"}`:       k / 3,
		`attestd_tier_admitted_total{tier="default"}`:       k,
		"attestd_gate_seconds_count":                        k,
		`transport_frames_total{dir="in"}`:                  k + 1, // and the hello
		`transport_bytes_total{dir="in"}`:                   float64(len(wire) + len(transport.AppendFrame(nil, hello.Encode()))),
	} {
		if got := series[key]; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}

// TestGateCountsAdvanceUnderSustainedFlood: a writer keeps the socket
// full, so the serve loop never waits, and attestd_frames_total still
// advances between every pair of samples while the writer runs; once it
// stops, the count is exact.
func TestGateCountsAdvanceUnderSustainedFlood(t *testing.T) {
	s := testServer(t, func(c *Config) { c.AttestEvery = time.Hour })
	client, nc := tcpPair(t)
	defer client.Close()
	serveDevice(t, s, client, nc, "flood-dev")
	waitFor(t, 5*time.Second, "the session to open", func() bool { return s.Counters().ConnsAccepted == 1 })

	const perWrite = 255 // a whole number of 1:1:1 cycles
	wire, _ := gateMix(perWrite)
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
		time.Sleep(20 * time.Millisecond)
		now := s.Counters().FramesIn
		if now <= last {
			t.Fatalf("sample %d: attestd_frames_total stuck at %d while the writer keeps writing", i, now)
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
