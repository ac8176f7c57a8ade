package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"proverattest/internal/anchor"
	"proverattest/internal/core"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
	"proverattest/internal/swarm"
	"proverattest/internal/transport"
)

// swarmBridge connects a core.FleetSwarm — real anchors on the
// simulation kernel — to the daemon through a single net.Pipe, the
// gateway connection. It sends the gateway's hello, answers every
// SwarmReq (full rounds and bisection probes alike) by running the
// aggregation over the fleet, and ignores the daemon's 1:1 traffic on
// the same socket.
//
// mu guards the fleet: the bridge queries it from its own goroutine while
// the test mutates adversary state (taints, absences).
type swarmBridge struct {
	mu   sync.Mutex
	fs   *core.FleetSwarm
	tc   *transport.Conn
	done chan struct{}
}

func startSwarmBridge(t *testing.T, s *Server, fs *core.FleetSwarm, gatewayID string) *swarmBridge {
	t.Helper()
	clientNC, serverNC := net.Pipe()
	go s.HandleConn(serverNC)
	tc := transport.NewConn(clientNC, transport.Options{
		ReadTimeout:  100 * time.Millisecond,
		WriteTimeout: 2 * time.Second,
	})
	hello := protocol.Hello{
		Freshness: protocol.FreshCounter,
		Auth:      protocol.AuthHMACSHA1,
		DeviceID:  gatewayID,
	}
	if err := tc.Send(hello.Encode()); err != nil {
		t.Fatal(err)
	}
	b := &swarmBridge{fs: fs, tc: tc, done: make(chan struct{})}
	go b.run()
	t.Cleanup(func() {
		tc.Close()
		<-b.done
	})
	return b
}

func (b *swarmBridge) run() {
	defer close(b.done)
	for {
		frame, err := b.tc.Recv()
		if err != nil {
			if transport.IsTimeout(err) {
				continue
			}
			return
		}
		if protocol.ClassifyFrame(frame) != protocol.FrameSwarmReq {
			continue // 1:1 requests share the socket; the bridge is swarm-only
		}
		req, err := protocol.DecodeSwarmReq(frame)
		if err != nil {
			continue
		}
		b.mu.Lock()
		resp, err := b.fs.Query(req)
		b.mu.Unlock()
		if err != nil || resp == nil {
			continue // absent subtree: the daemon's timeout models the silence
		}
		if err := b.tc.Send(resp.Encode()); err != nil {
			return
		}
	}
}

// with runs fn with the fleet lock held — the test's mutation window.
func (b *swarmBridge) with(fn func(fs *core.FleetSwarm)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fn(b.fs)
}

// taint rewrites the first word of member's attested RAM with the golden
// bytes already there, from application code: the memory still matches
// golden, but the write monitor latches, so the member re-measures under
// a new epoch and its own tag stops matching the verifier's record.
func taint(t *testing.T, fs *core.FleetSwarm, member int) {
	t.Helper()
	dev := fs.F.Members[member].Dev
	if f := dev.M.Bus.Write(mcu.FlashRegion.Start, mcu.RAMRegion.Start, dev.GoldenRAM()[:4]); f != nil {
		t.Fatalf("application write faulted: %v", f)
	}
}

// testSwarmServer starts a swarm-provisioned daemon and bridges an
// n-member simulated fleet to it; the fleet's keys derive from
// core.FleetMasterSecret, so the daemon is provisioned with it too.
func testSwarmServer(t *testing.T, n, fanout int, every time.Duration) (*Server, *swarmBridge, []string) {
	t.Helper()
	ids := swarm.FleetIDs(n)
	s := testServer(t, func(cfg *Config) {
		cfg.MasterSecret = core.FleetMasterSecret
		// Quiet the 1:1 schedule: this deployment attests collectively.
		cfg.AttestEvery = time.Hour
		cfg.Swarm = &SwarmConfig{
			IDs:     ids,
			Fanout:  fanout,
			Every:   every,
			Timeout: 2 * time.Second,
		}
	})
	fleet, err := core.NewFleet(core.FleetConfig{
		Provers: n,
		Fanout:  fanout,
		Scenario: core.ScenarioConfig{
			Freshness:  protocol.FreshCounter,
			Auth:       protocol.AuthHMACSHA1,
			Protection: anchor.FullProtection(),
			Monitor:    true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := core.NewFleetSwarm(fleet)
	if err != nil {
		t.Fatal(err)
	}
	b := startSwarmBridge(t, s, fs, ids[0])
	return s, b, ids
}

func hasFinding(fs []swarm.Finding, member int, cause swarm.Cause) bool {
	for _, f := range fs {
		if f.Member == member && f.Cause == cause {
			return true
		}
	}
	return false
}

// TestServerSwarmRounds drives the full networked swarm lifecycle over
// one gateway connection: clean aggregate rounds at two frames each,
// then an epoch-desynced member (localized by bisection, resynced, kept),
// then a lost member (localized, quarantined, survivors keep verifying).
func TestServerSwarmRounds(t *testing.T) {
	const n, fanout = 15, 2
	s, b, _ := testSwarmServer(t, n, fanout, 25*time.Millisecond)
	target := n - 1 // deepest member: the last leaf

	waitFor(t, 10*time.Second, "clean swarm rounds", func() bool {
		return s.SwarmStats().Accepted >= 2
	})
	if c := s.Counters(); c.SwarmRounds < 2 || c.SwarmBisections != 0 {
		t.Fatalf("clean phase: rounds=%d bisections=%d", c.SwarmRounds, c.SwarmBisections)
	}
	if fs := s.SwarmFindings(); len(fs) != 0 {
		t.Fatalf("clean phase produced findings: %v", fs)
	}

	// Epoch desync: the member's write monitor fires (a legitimate local
	// write), it re-measures its still-golden memory under a new epoch,
	// and its own tag stops matching the verifier's recorded epoch. The
	// daemon must localize the member and resync instead of evicting it.
	b.with(func(fs *core.FleetSwarm) { taint(t, fs, target) })
	waitFor(t, 10*time.Second, "desync localized", func() bool {
		return hasFinding(s.SwarmFindings(), target, swarm.CauseMismatch)
	})
	if c := s.Counters(); c.SwarmBisections == 0 {
		t.Fatal("mismatch localized without bisection probes")
	}
	resynced := s.SwarmStats().Accepted
	waitFor(t, 10*time.Second, "rounds resume after resync", func() bool {
		return s.SwarmStats().Accepted > resynced
	})
	if got := s.SwarmTopology(); got != nil && got.Len() != n {
		t.Fatalf("resynced member was evicted: %d members left", got.Len())
	}

	// Member loss: the leaf goes dark. Its presence bit clears, the
	// verifier localizes the absence and quarantines the member, and the
	// surviving fleet's aggregate verifies again.
	b.with(func(fs *core.FleetSwarm) { fs.Absent[target] = true })
	waitFor(t, 10*time.Second, "absence localized", func() bool {
		return hasFinding(s.SwarmFindings(), target, swarm.CauseAbsent)
	})
	recovered := s.SwarmStats().Accepted
	waitFor(t, 10*time.Second, "rounds resume after quarantine", func() bool {
		return s.SwarmStats().Accepted > recovered
	})
	if got := s.SwarmTopology(); got == nil || got.Len() != n-1 {
		t.Fatalf("quarantine did not shrink the tree: %v", got)
	}
}

// TestServerSwarmMessageReduction: 64 members at fanout 4 behind one
// gateway connection, a round every 100 ms for two seconds. Halfway
// through, the deepest member's write monitor fires and its tag desyncs;
// the daemon must localize it as a mismatch by bisection over the same
// socket and resync it without eviction. Over the whole run, bisection
// probes included, the verifier spends at least 10 times fewer frames per
// round than the 2N of a direct deployment.
func TestServerSwarmMessageReduction(t *testing.T) {
	const n, fanout, duration = 64, 4, 2 * time.Second
	s, b, _ := testSwarmServer(t, n, fanout, 100*time.Millisecond)
	t0 := time.Now()
	time.Sleep(duration / 2)

	topo := s.SwarmTopology()
	target := topo.MemberAt(topo.Len() - 1)
	b.with(func(fs *core.FleetSwarm) { taint(t, fs, target) })
	drillEnd := time.Now().Add(duration/2 + 5*time.Second)
	waitFor(t, time.Until(drillEnd), "the desynced member localized", func() bool {
		return hasFinding(s.SwarmFindings(), target, swarm.CauseMismatch)
	})
	localized := s.SwarmStats().Accepted
	waitFor(t, time.Until(drillEnd), "rounds resume after resync", func() bool {
		return s.SwarmStats().Accepted > localized
	})
	if got := s.SwarmTopology().Len(); got != n {
		t.Fatalf("resynced member was evicted: %d members left", got)
	}
	time.Sleep(duration - time.Since(t0))

	c := s.Counters()
	if accepted := s.SwarmStats().Accepted; c.SwarmRounds == 0 || accepted == 0 {
		t.Fatalf("no swarm rounds verified: rounds=%d accepted=%d", c.SwarmRounds, accepted)
	}
	perRound := float64(2*c.SwarmRounds+2*c.SwarmBisections) / float64(c.SwarmRounds)
	reduction := float64(2*n) / perRound
	t.Logf("%d rounds, %d bisection probes: %.1f verifier frames per round against %d direct, %.1fx",
		c.SwarmRounds, c.SwarmBisections, perRound, 2*n, reduction)
	if reduction < 10 {
		t.Fatalf("message reduction %.1fx below the 10x floor", reduction)
	}
}

// TestServerSwarmMalformedResp: swarm responses share the serving gate
// with everything else — a garbage frame with the right magic dies at
// strict decode under its own reject cause, and a stale (wrong-nonce)
// response dies as unsolicited.
func TestServerSwarmMalformedResp(t *testing.T) {
	s, b, _ := testSwarmServer(t, 3, 2, 25*time.Millisecond)
	waitFor(t, 10*time.Second, "a clean round", func() bool {
		return s.SwarmStats().Accepted >= 1
	})
	// Malformed: swarm-resp magic, truncated body.
	if err := b.tc.Send([]byte{0x41, 0x56, 0x01, 0x00}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "malformed swarm frame counted", func() bool {
		return s.Counters().MalformedFrames >= 1
	})
	// Stale nonce: a well-formed response answering no outstanding query.
	stale := &protocol.SwarmResp{Nonce: 1, Root: 0, Bitmap: []byte{0x07}}
	if err := b.tc.Send(stale.Encode()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "stale swarm response rejected", func() bool {
		return s.Counters().ResponsesUnsolicited >= 1
	})
}
