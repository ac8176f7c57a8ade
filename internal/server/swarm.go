package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"proverattest/internal/protocol"
	"proverattest/internal/swarm"
	"proverattest/internal/transport"
)

// SwarmConfig provisions the daemon as the verifier of a swarm
// (collective-attestation) deployment: instead of attesting every fleet
// member 1:1, the daemon drives aggregate rounds through the spanning
// tree's root — the "gateway" device, the only fleet member the daemon
// can reach directly. Everything below the gateway is the provers' own
// mesh: the daemon sends one SwarmReq down the gateway connection and
// reads one SwarmResp back, whatever the fleet size.
//
// Bisection probes for localization travel the same connection (they are
// SwarmReq frames addressed at inner subtree roots; the gateway's mesh
// routes them), so a failed aggregate costs O(fanout · depth) extra
// frames on the verifier leg instead of O(n).
type SwarmConfig struct {
	// IDs is the fleet member list in tree-index order; IDs[i] is member
	// i's device ID. Required, and must include the gateway.
	IDs []string
	// Fanout is the spanning-tree arity (default 2).
	Fanout int
	// Seed permutes member placement in the tree (0 = identity order).
	Seed int64
	// Every is the aggregate-round period (default 1 s).
	Every time.Duration
	// Timeout bounds one query on the gateway connection — the full
	// down-and-up traversal of the subtree (default 5 s).
	Timeout time.Duration
}

// swarmCoordinator owns the daemon side of swarm aggregation: the swarm
// verifier (expected aggregates, topology, bisection) plus the plumbing
// that matches SwarmResp frames read by the gateway connection's read
// loop to the round waiting for them.
//
// mu is held for the whole of a round — request, wait, check, localize,
// recover — so the verifier's nonce stream and topology mutate under one
// owner. The read loop never takes mu: delivery goes through the pend
// pointer (lock-free), because the round blocks on the waiter channel
// while holding mu and would deadlock any read-loop lock acquisition.
type swarmCoordinator struct {
	v       *swarm.Verifier
	gateway string
	every   time.Duration
	timeout time.Duration

	pend atomic.Pointer[swarmWaiter]

	mu       sync.Mutex
	findings []swarm.Finding
}

// swarmWaiter is one outstanding query: the round publishes it before
// sending, the read loop delivers the nonce-matching response into ch
// (buffered, non-blocking send — a duplicate loses the race and dies as
// unsolicited upstream).
type swarmWaiter struct {
	nonce uint64
	ch    chan *protocol.SwarmResp
}

func newSwarmCoordinator(cfg *Config) (*swarmCoordinator, error) {
	sw := cfg.Swarm
	if len(sw.IDs) == 0 {
		return nil, errors.New("server: swarm needs a fleet ID list")
	}
	if sw.Every <= 0 {
		sw.Every = time.Second
	}
	if sw.Timeout <= 0 {
		sw.Timeout = 5 * time.Second
	}
	v, err := swarm.NewVerifier(swarm.Params{
		Master: cfg.MasterSecret,
		IDs:    sw.IDs,
		Golden: cfg.Golden,
		Fanout: sw.Fanout,
		Seed:   sw.Seed,
	})
	if err != nil {
		return nil, err
	}
	root, ok := v.Topology().Root()
	if !ok {
		return nil, errors.New("server: swarm topology is empty")
	}
	return &swarmCoordinator{
		v:       v,
		gateway: sw.IDs[root],
		every:   sw.Every,
		timeout: sw.Timeout,
	}, nil
}

// SwarmStats snapshots the swarm verifier's round/bisection counters
// (zero value when the daemon is not swarm-provisioned). Blocks while a
// round is in flight.
func (s *Server) SwarmStats() swarm.VerifierStats {
	sc := s.swarm
	if sc == nil {
		return swarm.VerifierStats{}
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.v.Stats
}

// SwarmFindings returns the cumulative localization findings — every
// member bisection has attributed a failed aggregate to, with its cause.
func (s *Server) SwarmFindings() []swarm.Finding {
	sc := s.swarm
	if sc == nil {
		return nil
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([]swarm.Finding(nil), sc.findings...)
}

// SwarmTopology snapshots the verifier's current spanning tree (nil when
// the daemon is not swarm-provisioned). The returned topology is
// immutable — quarantines replace it rather than mutating it.
func (s *Server) SwarmTopology() *swarm.Topology {
	sc := s.swarm
	if sc == nil {
		return nil
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.v.Topology()
}

// swarmLoop drives the aggregate-attestation schedule over the gateway
// connection: one full round immediately (the fleet just became
// reachable), then one per period. It stops with the connection.
func (s *Server) swarmLoop(tc *transport.Conn, stop <-chan struct{}) {
	sc := s.swarm
	ticker := time.NewTicker(sc.every)
	defer ticker.Stop()
	for {
		if !s.swarmRound(tc, stop) {
			tc.Close() // gateway conn failed: tear the connection down as one unit
			return
		}
		select {
		case <-stop:
			return
		case <-s.drainCh:
			return
		case <-ticker.C:
		}
	}
}

// swarmRound runs one aggregate round: request at the tree root, check
// the aggregate, and on failure bisect and apply the recovery policy.
// Reports false when the gateway connection is unusable.
func (s *Server) swarmRound(tc *transport.Conn, stop <-chan struct{}) bool {
	sc := s.swarm
	sc.mu.Lock()
	defer sc.mu.Unlock()
	root, ok := sc.v.Topology().Root()
	if !ok {
		return true // every member quarantined; nothing left to attest
	}
	s.m.swarmRounds.Inc()
	req := sc.v.NewRequest(root, false)
	resp, down := s.swarmQuery(tc, stop, req)
	if down {
		return false
	}
	var err error
	if resp == nil {
		err = errSwarmSilent
	} else {
		err = sc.v.Check(req, resp)
	}
	if err == nil {
		return true
	}
	return s.swarmLocalize(tc, stop, root)
}

// errSwarmSilent stands in for "the gateway never answered the round" on
// the localize trigger path (the verifier itself never saw a response).
var errSwarmSilent = errors.New("server: swarm round timed out")

// swarmLocalize bisects below root and applies the per-cause recovery
// policy: absent members are quarantined (removed from the tree so the
// surviving fleet keeps verifying), mismatched members get one epoch
// resync attempt — a desynced-but-clean member rejoins, a genuinely
// dirty one is quarantined — and fold forgers are quarantined outright
// (their aggregates cannot be trusted even when their own tag checks).
//
// If the gateway connection dies mid-bisection, every un-probed subtree
// looks absent; applying recovery then would quarantine the whole fleet
// on connection loss. The connErr flag discards the findings of such a
// round instead.
func (s *Server) swarmLocalize(tc *transport.Conn, stop <-chan struct{}, root int) bool {
	sc := s.swarm
	connErr := false
	findings := sc.v.Localize(root, func(req *protocol.SwarmReq) (*protocol.SwarmResp, error) {
		if connErr {
			return nil, errSwarmSilent
		}
		s.m.swarmBisections.Inc()
		resp, down := s.swarmQuery(tc, stop, req)
		if down {
			connErr = true
			return nil, errSwarmSilent
		}
		return resp, nil
	})
	if connErr {
		return false
	}
	sc.findings = append(sc.findings, findings...)
	for _, f := range findings {
		switch f.Cause {
		case swarm.CauseMismatch:
			if resynced, down := s.swarmResync(tc, stop, f.Member); down {
				return false
			} else if !resynced {
				sc.v.Remove(f.Member)
			}
		default: // CauseAbsent, CauseFoldForgery
			sc.v.Remove(f.Member)
		}
	}
	return true
}

// swarmResync is the epoch-resync contract after a localized mismatch: a
// clean member whose monitor epoch ran ahead of the verifier's record
// (extra local measurements the verifier never saw) produces own tags
// that fail at the recorded epoch but verify at a nearby one. One
// own-only probe, then a bounded scan of candidate epochs against the
// same response; the recorded epoch is restored when nothing fits — the
// member's memory genuinely deviates.
func (s *Server) swarmResync(tc *transport.Conn, stop <-chan struct{}, member int) (resynced, down bool) {
	sc := s.swarm
	req := sc.v.NewRequest(member, true)
	s.m.swarmBisections.Inc()
	resp, d := s.swarmQuery(tc, stop, req)
	if d {
		return false, true
	}
	if resp == nil {
		return false, false
	}
	base := sc.v.ExpectedEpoch(member)
	for e := base; e <= base+16; e++ {
		sc.v.SetEpoch(member, e)
		if sc.v.Check(req, resp) == nil {
			return true, false
		}
	}
	sc.v.SetEpoch(member, base)
	return false, false
}

// swarmQuery publishes the waiter, sends the request down the gateway
// connection, and waits for the read loop to deliver the matching
// response. The second return is true when the connection (or the
// daemon) is done for; a plain timeout returns (nil, false) — the
// QueryFunc contract for "no answer".
func (s *Server) swarmQuery(tc *transport.Conn, stop <-chan struct{}, req *protocol.SwarmReq) (*protocol.SwarmResp, bool) {
	sc := s.swarm
	w := &swarmWaiter{nonce: req.Nonce, ch: make(chan *protocol.SwarmResp, 1)}
	sc.pend.Store(w)
	defer sc.pend.Store(nil)
	if err := tc.Send(req.Encode()); err != nil {
		if transport.IsTimeout(err) {
			s.m.evictWriteStall.Inc()
		}
		return nil, true
	}
	timer := time.NewTimer(sc.timeout)
	defer timer.Stop()
	select {
	case resp := <-w.ch:
		return resp, false
	case <-stop:
		return nil, true
	case <-s.drainCh:
		return nil, true
	case <-timer.C:
		return nil, false
	}
}

// onSwarmResp is the read-loop side of swarmQuery: only the gateway
// connection may carry swarm evidence, a frame that fails strict decode
// is malformed whatever round state exists, and anything not answering
// the outstanding nonce is unsolicited. Runs without the coordinator
// mutex — the round blocks on the waiter channel while holding it, so
// delivery goes through the lock-free pend pointer instead.
func (s *Server) onSwarmResp(dev *deviceState, frame []byte) rejectCause {
	sc := s.swarm
	if sc == nil || dev.id != sc.gateway {
		return causeUnsolicited
	}
	// Decode into a stack value, then copy out: the retained response
	// escapes, and its bitmap is already a copy (DecodeSwarmRespInto
	// never aliases frame, which is only valid for this call).
	var tmp protocol.SwarmResp
	if err := protocol.DecodeSwarmRespInto(frame, &tmp); err != nil {
		return causeMalformedSwarm
	}
	w := sc.pend.Load()
	if w == nil || tmp.Nonce != w.nonce {
		return causeUnsolicited
	}
	resp := new(protocol.SwarmResp)
	*resp = tmp
	select {
	case w.ch <- resp:
	default: // duplicate for this nonce: first delivery wins
	}
	return causeNone
}
