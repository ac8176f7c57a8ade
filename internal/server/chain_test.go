package server

import (
	"bytes"
	"io"
	"testing"
	"time"

	"proverattest/internal/admin"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// unknownFrames returns n frames of an unknown kind: admitted, they die at
// classify, so each read's admissions show in attestd_rejects_total.
func unknownFrames(n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = []byte{0xDE, 0xAD}
	}
	return frames
}

// TestReadChainExactCounts: one socket read of 16 frames meets a chain
// whose connection bucket holds 12 tokens, whose tier bucket holds 8 and
// whose daemon bucket holds 4, none refilling within the test. In stream
// order 4 frames pass all three, 4 die at the daemon bucket, 4 at the
// tier's and 4 at the connection's, and every series counts exactly that.
func TestReadChainExactCounts(t *testing.T) {
	s, dev := newAllocRig(t, func(c *Config) {
		c.Tiers = &TierPolicy{Tiers: []TierSpec{{
			Name: "bulk", RatePerSec: 1e-9, Burst: 8, PerConnRatePerSec: 1e-9, PerConnBurst: 12,
		}}}
		c.MaxRatePerSec, c.MaxRateBurst = 1e-9, 4
	})
	rig := newReadRig(s, dev, dev.tier.Load().connBucketAt(monoNow()))
	rig.serve(t, unknownFrames(16)...)
	expectSeries(t, s, map[string]float64{
		"attestd_frames_total":                        16,
		`attestd_rejects_total{cause="rate_limited"}`: 4,
		`attestd_rejects_total{cause="tier_limited"}`: 4,
		`attestd_rejects_total{cause="daemon_rate"}`:  4,
		`attestd_rejects_total{cause="unknown_kind"}`: 4,
		`attestd_tier_admitted_total{tier="bulk"}`:    4,
		"attestd_gate_seconds_count":                  16,
	})
	if got := s.tiers.byName("bulk").limited.Load(); got != 4 {
		t.Errorf("bulk tier limited %d frames, want 4", got)
	}
}

// TestTierRetuneAppliesFromNextRead: an AdminSetTier retune between two
// reads governs the whole of the second, and a chain resolved before the
// retune keeps the old budget for the rest of its read.
func TestTierRetuneAppliesFromNextRead(t *testing.T) {
	s, dev := newAllocRig(t, func(c *Config) {
		c.Tiers = &TierPolicy{Tiers: []TierSpec{{Name: "bulk", RatePerSec: 1e-9, Burst: 2}}}
	})
	rig := newReadRig(s, dev, nil)
	retune := func(rate, burst float64) {
		t.Helper()
		if _, err := s.AdminSetTier("bulk", admin.TierOverride{RatePerSec: &rate, Burst: &burst}); err != nil {
			t.Fatal(err)
		}
	}

	rig.serve(t, unknownFrames(4)...) // 2 admitted, 2 tier-limited
	retune(0, 0)                      // lift the cap
	rig.serve(t, unknownFrames(4)...) // 4 admitted
	retune(1e-9, 3)
	rig.serve(t, unknownFrames(4)...) // 3 admitted, 1 tier-limited
	expectSeries(t, s, map[string]float64{
		"attestd_frames_total":                        12,
		`attestd_rejects_total{cause="tier_limited"}`: 3,
		`attestd_tier_admitted_total{tier="bulk"}`:    9,
	})

	// The tier's bucket is empty now. A read resolved before a retune that
	// lifts the cap still refuses; the next read admits.
	var g gateTally
	c := s.chainAt(&g, dev, nil, monoNow())
	retune(0, 0)
	if got := c.refusal(); got != causeTierLimited {
		t.Fatalf("a read resolved before the retune: cause %d, want tier_limited (%d)", got, causeTierLimited)
	}
	next := s.chainAt(&g, dev, nil, monoNow())
	if got := next.refusal(); got != causeNone {
		t.Fatalf("the read after the retune: cause %d, want admitted", got)
	}
}

// TestTierMoveBetweenReads: a second hello for the device advertises
// another tier class and moves it there. The connection already serving
// the device admits its next read against the new tier, and the reads
// before the move stay counted to the old one.
func TestTierMoveBetweenReads(t *testing.T) {
	s, dev := newAllocRig(t, func(c *Config) {
		c.AttestEvery = time.Hour
		c.Tiers = &TierPolicy{
			Tiers: []TierSpec{
				{Name: "gold", Class: 1},
				{Name: "bulk", Class: 2},
			},
			Default: "bulk",
		}
	})
	gold, bulk := s.tiers.byName("gold"), s.tiers.byName("bulk")
	if dev.tier.Load() != bulk {
		t.Fatalf("device starts in %s, want bulk", dev.tier.Load().name)
	}
	rig := newReadRig(s, dev, nil)
	rig.serve(t, unknownFrames(3)...)
	if got := bulk.admitted.Load(); got != 3 {
		t.Fatalf("bulk admitted %d frames after the first read, want 3", got)
	}

	client, nc := tcpPair(t)
	defer client.Close()
	go s.HandleConn(nc)
	hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, Tier: 1, DeviceID: dev.id}
	if err := transport.WriteFrame(client, hello.Encode(), 0); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, client) //nolint:errcheck
	waitFor(t, 5*time.Second, "the second hello to move the device", func() bool { return dev.tier.Load() == gold })

	rig.serve(t, unknownFrames(5)...)
	expectSeries(t, s, map[string]float64{
		"attestd_frames_total":                     8,
		`attestd_tier_admitted_total{tier="bulk"}`: 3,
		`attestd_tier_admitted_total{tier="gold"}`: 5,
	})
	if g, b := gold.devices.Load(), bulk.devices.Load(); g != 1 || b != 0 {
		t.Fatalf("tier populations gold=%d bulk=%d, want 1 and 0", g, b)
	}
}

// TestAttRespStrictChecksBeforeNonce: the nonce-only refusal comes after
// the strict checks, so a response that fails them is malformed whatever
// nonce it names, and a response naming an issued nonce still takes the
// device lock and the pending-map lookup.
func TestAttRespStrictChecksBeforeNonce(t *testing.T) {
	s, dev := newAllocRig(t)
	req, err := dev.v.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	never := (&protocol.AttResp{Nonce: 0xFEED}).Encode()
	if !dev.v.Unissued(0xFEED) {
		t.Fatal("nonce 0xFEED counts as issued")
	}
	reserved := bytes.Clone(never)
	reserved[3] |= 0x80
	for name, frame := range map[string][]byte{
		"short":    never[:len(never)-1],
		"long":     append(bytes.Clone(never), 0),
		"reserved": reserved,
	} {
		checked := dev.v.Unsolicited
		if got := s.handleFrame(dev, frame); got != causeMalformedResponse {
			t.Errorf("%s response naming a never-issued nonce: cause %d, want malformed_response (%d)", name, got, causeMalformedResponse)
		}
		if dev.v.Unsolicited != checked {
			t.Errorf("%s response reached the verifier's lookup", name)
		}
	}

	// A wrong measurement for the pending request waits for the lock.
	frame := (&protocol.AttResp{Nonce: req.Nonce, Counter: req.Counter}).Encode()
	done := make(chan rejectCause, 1)
	dev.mu.Lock()
	go func() { done <- s.handleFrame(dev, frame) }()
	select {
	case cause := <-done:
		dev.mu.Unlock()
		t.Fatalf("an issued nonce was refused without the device lock: cause %d", cause)
	case <-time.After(50 * time.Millisecond):
	}
	dev.mu.Unlock()
	if got := <-done; got != causeBadMeasurement {
		t.Fatalf("wrong measurement for an issued nonce: cause %d, want bad_measurement (%d)", got, causeBadMeasurement)
	}
	if !dev.v.IsPending(req.Nonce) {
		t.Fatal("the refused answer retired its request")
	}
}
