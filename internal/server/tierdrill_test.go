//go:build drill

package server

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// The tier-isolation drill is built only with -tags drill. Its gate is a
// host latency: the gold prover's own decode, 512 KiB MAC and send, timed
// while paced flooders in the same process sleep between frames. That p99
// moves with whatever else the machine runs, in both directions, so the
// drill runs alone in its own CI step and never in `go test ./...`.

// goldProver is an authentic device session: it answers every request
// with the full measurement over the golden image and records each
// round's latency, from the request's decode to the answer's send.
type goldProver struct {
	tc     *transport.Conn
	key    [20]byte
	golden []byte

	mu      sync.Mutex
	roundNs []int64
}

func (p *goldProver) serve() {
	var respBuf []byte
	for {
		frame, err := p.tc.RecvShared()
		if err != nil {
			if transport.IsTimeout(err) {
				continue
			}
			return
		}
		if protocol.ClassifyFrame(frame) != protocol.FrameAttReq {
			continue
		}
		t0 := time.Now()
		req, err := protocol.DecodeAttReq(frame)
		if err != nil {
			continue
		}
		resp := protocol.AttResp{
			Nonce:       req.Nonce,
			Counter:     req.Counter,
			Measurement: protocol.Measure(p.key[:], req, p.golden),
		}
		respBuf = resp.AppendEncode(respBuf[:0])
		if p.tc.Send(respBuf) != nil {
			return
		}
		ns := time.Since(t0).Nanoseconds()
		p.mu.Lock()
		p.roundNs = append(p.roundNs, ns)
		p.mu.Unlock()
	}
}

// drainRounds takes and clears the round latencies of every prover,
// sorted ascending.
func drainRounds(ps []*goldProver) []int64 {
	var all []int64
	for _, p := range ps {
		p.mu.Lock()
		all = append(all, p.roundNs...)
		p.roundNs = p.roundNs[:0]
		p.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// TestGoldTierIsolation: two device classes share one daemon, an uncapped
// gold tier of honest provers and a bulk tier with a tier-wide budget of
// 400 frames/s. Gold's round latency is measured for 3 s unloaded, then
// for 3 s while the bulk tier floods at ten times its budget. The flood
// must die at its own tier's bucket, inside the budget envelope, and
// gold's p99 may move at most 2x.
func TestGoldTierIsolation(t *testing.T) {
	const (
		goldN, bulkN = 4, 4
		every        = 20 * time.Millisecond
		phase        = 3 * time.Second
		budget       = 400.0 // the bulk tier's frames/s
		floodX       = 10.0
	)
	s := testServer(t, func(c *Config) {
		c.AttestEvery = every
		// Bulk requests go unanswered; a short timeout recycles their
		// slots before the shared MaxInflight pool can starve gold's
		// issue, which would measure slot exhaustion, not admission.
		c.RequestTimeout = 500 * time.Millisecond
		c.MaxInflight = 8 * (goldN + bulkN)
		c.Tiers = &TierPolicy{
			Tiers: []TierSpec{
				{Name: "gold", Class: 1, Match: []string{"gold-"}},
				{Name: "bulk", Class: 2, Match: []string{"bulk-"}, RatePerSec: budget},
			},
			Default: "bulk",
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck
	addr := ln.Addr().String()

	gold := make([]*goldProver, goldN)
	for i := range gold {
		id := fmt.Sprintf("gold-%03d", i)
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		tc := transport.NewConn(nc, transport.Options{
			ReadTimeout:  250 * time.Millisecond,
			WriteTimeout: 10 * time.Second,
		})
		t.Cleanup(func() { tc.Close() })
		hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, Tier: 1, DeviceID: id}
		if err := tc.Send(hello.Encode()); err != nil {
			t.Fatal(err)
		}
		gold[i] = &goldProver{
			tc:      tc,
			key:     protocol.DeriveDeviceKey(testMaster, id),
			golden:  s.cfg.Golden,
			roundNs: make([]int64, 0, 4096),
		}
		go gold[i].serve()
	}

	// Warm-up: every gold session completes several rounds and the heap
	// and scheduler settle before the unloaded window opens.
	time.Sleep(every + 500*time.Millisecond)
	drainRounds(gold)
	time.Sleep(phase)
	unloaded := drainRounds(gold)

	// The bulk devices only flood: an honest bulk prover's full MACs would
	// load gold through the scheduler, not through admission, which is not
	// the effect under test.
	var sent atomic.Int64
	var wg sync.WaitGroup
	floods := make([]*transport.Conn, bulkN)
	for i := range floods {
		floods[i] = floodSession(t, addr, fmt.Sprintf("bulk-%03d", i), 2)
	}
	t0 := time.Now()
	for _, tc := range floods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent.Add(floodPaced(tc, floodX*budget/bulkN, t0.Add(phase)))
		}()
	}
	wg.Wait()
	flooded := time.Since(t0)
	loaded := drainRounds(gold)

	bulk := s.tiers.byName("bulk")
	admitted, limited := bulk.admitted.Load(), bulk.limited.Load()
	unloadedP99, loadedP99 := percentile(unloaded, 0.99), percentile(loaded, 0.99)
	t.Logf("gold rounds %d unloaded (p50 %d ns, p99 %d ns), %d loaded (p50 %d ns, p99 %d ns); bulk sent %d, admitted %d, tier-limited %d",
		len(unloaded), percentile(unloaded, 0.50), unloadedP99, len(loaded), percentile(loaded, 0.50), loadedP99,
		sent.Load(), admitted, limited)

	if len(unloaded) == 0 || len(loaded) == 0 {
		t.Fatalf("gold tier completed no authentic rounds (unloaded %d, loaded %d)", len(unloaded), len(loaded))
	}
	if limited == 0 {
		t.Errorf("bulk tier was never tier-limited: the flood of %d frames did not exceed its budget", sent.Load())
	}
	// Budget x time plus the burst and as much again as slack.
	if envelope := budget*flooded.Seconds() + 2*budget; float64(admitted) > 1.25*envelope {
		t.Errorf("bulk tier admitted %d frames, above 1.25x its %.0f-frame budget envelope", admitted, envelope)
	}
	if ratio := float64(loadedP99) / float64(unloadedP99); ratio > 2.0 {
		t.Errorf("gold p99 moved %.2fx under the bulk flood (%d ns unloaded, %d ns loaded), above the 2.0x bound",
			ratio, unloadedP99, loadedP99)
	} else {
		t.Logf("gold p99 %.2fx unloaded under a %.0fx bulk flood", ratio, floodX)
	}
}
