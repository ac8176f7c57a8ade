package anchor

// The prover side of swarm (collective) attestation. A node's round has
// three phases, each a Code_Attest job on the simulated MCU:
//
//  1. HandleSwarmBegin — gate the broadcast request (K_Swarm tag +
//     monotonic nonce), then compute the node's own tag: O(1) from the
//     stored memory digest while the write monitor reports the region
//     clean under the same epoch, a full re-measurement otherwise (the
//     RATA contract, shared with the 1:1 fast path).
//  2. SwarmFoldChild — fold one child's aggregate response into the
//     pending round, in child order, OR-ing its presence bitmap.
//  3. SwarmRespond — emit the aggregate (for a leaf: the own tag) frame.
//
// The application layer owns the tree: it forwards the request to the
// node's children and feeds their responses back in order. It cannot
// forge anything by misbehaving — child aggregates are keyed per device,
// so any reordering, substitution or omission surfaces as a verifier
// aggregate mismatch and is localized by bisection.

import (
	"crypto/hmac"
	"crypto/sha1"

	"proverattest/internal/crypto/cost"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
)

// swarmState is the anchor's swarm scratch: the persistent measurement
// memo (digest + epoch, anchor SRAM) and the state of the round in
// flight.
type swarmState struct {
	lastNonce uint64
	// Measurement memo: the last swarm memory digest and the monitor
	// epoch it was measured under. Reused only while the monitor reports
	// the region clean under the same epoch.
	epoch  uint32
	digest [sha1.Size]byte
	have   bool

	// Pending round.
	active  bool
	ownOnly bool
	nonce   uint64
	own     [sha1.Size]byte
	fold    *protocol.MAC
	folded  int
	depth   uint8
	bitmap  []byte
}

// Static swarm gate errors (reported through done callbacks).
var (
	errSwarmDisabled  = &mcu.Fault{Reason: "swarm not provisioned"}
	errSwarmMalformed = &mcu.Fault{Reason: "malformed swarm frame"}
	errSwarmAuth      = &mcu.Fault{Reason: "swarm request authentication failed"}
	errSwarmFreshness = &mcu.Fault{Reason: "swarm request replayed"}
	errSwarmNoRound   = &mcu.Fault{Reason: "no swarm round in flight"}
	errSwarmOwnOnly   = &mcu.Fault{Reason: "own-only round accepts no children"}
	errSwarmNonce     = &mcu.Fault{Reason: "child response nonce mismatch"}
)

// HandleSwarmBegin submits a swarm broadcast request to Code_Attest:
// gate, then own-tag computation. done (if non-nil) receives nil when the
// node has a round in flight and an error when the frame was rejected.
func (a *Anchor) HandleSwarmBegin(payload []byte, done func(error)) {
	frame := append([]byte(nil), payload...)
	var err error
	a.M.Submit(a.CodeAttest, func(e *mcu.Exec) {
		err = a.swarmBegin(e, frame)
	}, func(*mcu.Exec) {
		if done != nil {
			done(err)
		}
	})
}

func (a *Anchor) swarmBegin(e *mcu.Exec, frame []byte) error {
	a.Stats.Received++
	e.Tick(parseCost)
	if len(a.cfg.SwarmKey) == 0 || a.cfg.SwarmFleet <= 0 {
		a.Stats.Malformed++
		return errSwarmDisabled
	}
	req, err := protocol.DecodeSwarmReq(frame)
	if err != nil {
		a.Stats.Malformed++
		return errSwarmMalformed
	}

	// Gate: the broadcast tag must verify before any measurement work —
	// the §3.1 asymmetry argument, per hop. K_Swarm lives alongside the
	// anchor's protected state (provisioned at manufacture).
	signed := req.SignedBytes()
	e.Tick(cost.HMACSHA1(len(signed)))
	if !hmac.Equal(protocol.NewMAC(a.cfg.SwarmKey).Tag(signed)[:], req.Tag) {
		a.Stats.AuthRejected++
		return errSwarmAuth
	}
	// Freshness: per-device monotonic swarm nonce. Bisection probes use
	// fresh nonces, so strict increase holds tree-wide.
	e.Tick(8)
	if req.Nonce <= a.swarm.lastNonce {
		a.Stats.FreshnessRejected++
		return errSwarmFreshness
	}
	a.swarm.lastNonce = req.Nonce

	key, fault := e.Read(a.keyAddr, KeySize)
	if fault != nil {
		a.Stats.Faults++
		return fault
	}

	epoch, fast, fault := a.swarmOwnDigest(e, key)
	if fault != nil {
		a.Stats.Faults++
		return fault
	}
	if fast {
		a.Stats.FastResponses++
	}

	mac := protocol.NewMAC(key)
	e.Tick(cost.HMACSHA1(len(signed) + 6 + sha1.Size))
	protocol.SwarmOwnTagInto(mac, signed, a.cfg.SwarmIndex, epoch, &a.swarm.digest, &a.swarm.own)

	if want := protocol.SwarmBitmapLen(a.cfg.SwarmFleet); len(a.swarm.bitmap) != want {
		a.swarm.bitmap = make([]byte, want)
	} else {
		for i := range a.swarm.bitmap {
			a.swarm.bitmap[i] = 0
		}
	}
	protocol.SetSwarmBit(a.swarm.bitmap, int(a.cfg.SwarmIndex))
	a.swarm.active = true
	a.swarm.ownOnly = req.OwnOnly
	a.swarm.nonce = req.Nonce
	a.swarm.fold = mac
	a.swarm.folded = 0
	a.swarm.depth = 0
	return nil
}

// swarmOwnDigest establishes the memory digest and epoch backing the own
// tag: the stored memo when the monitor reports the region clean under
// the memo's epoch, a full re-measurement otherwise. Without a monitor
// every round measures (a software epoch keeps the tag shape uniform).
// The clean-reuse condition requires epoch equality, not just a clean
// latch: a 1:1 full round rearms the monitor too, and vouching for a
// pre-rearm digest under a post-rearm epoch would let content changes
// made between the memo and the rearm hide behind a clean latch.
func (a *Anchor) swarmOwnDigest(e *mcu.Exec, key []byte) (epoch uint32, fast bool, fault *mcu.Fault) {
	if a.Mon != nil {
		status, f := e.Load32(mcu.MonStatusAddr)
		if f != nil {
			return 0, false, f
		}
		monEpoch, f := e.Load32(mcu.MonEpochAddr)
		if f != nil {
			return 0, false, f
		}
		if status == 0 && monEpoch != 0 && a.swarm.have && a.swarm.epoch == monEpoch {
			return monEpoch, true, nil
		}
		// Dirty (or desynced): rearm first, then measure — a store racing
		// the measurement re-latches the bit, the TOCTOU property the
		// 1:1 fast path stands on.
		epoch = a.monitorRearm(e)
	} else {
		epoch = a.swarm.epoch + 1
	}
	mem, f := e.View(a.cfg.MeasuredRegion.Start, a.cfg.MeasuredRegion.Size)
	if f != nil {
		return 0, false, f
	}
	e.Tick(cost.HMACSHA1(len(mem)))
	a.swarm.digest = protocol.SwarmMemDigest(key, mem)
	a.swarm.epoch = epoch
	a.swarm.have = true
	a.Stats.Measurements++
	return epoch, false, nil
}

// SwarmFoldChild submits one child aggregate response to the pending
// round. Children must be folded in child order; done (if non-nil)
// receives nil on success.
func (a *Anchor) SwarmFoldChild(payload []byte, done func(error)) {
	frame := append([]byte(nil), payload...)
	var err error
	a.M.Submit(a.CodeAttest, func(e *mcu.Exec) {
		err = a.swarmFoldChild(e, frame)
	}, func(*mcu.Exec) {
		if done != nil {
			done(err)
		}
	})
}

func (a *Anchor) swarmFoldChild(e *mcu.Exec, frame []byte) error {
	e.Tick(parseCost)
	if !a.swarm.active {
		return errSwarmNoRound
	}
	if a.swarm.ownOnly {
		return errSwarmOwnOnly
	}
	resp, err := protocol.DecodeSwarmResp(frame)
	if err != nil {
		a.Stats.Malformed++
		return errSwarmMalformed
	}
	if resp.Nonce != a.swarm.nonce {
		return errSwarmNonce
	}
	if a.swarm.folded == 0 {
		protocol.SwarmFoldStart(a.swarm.fold, &a.swarm.own)
	}
	e.Tick(cost.SHA1HMACPerBlock)
	protocol.SwarmFoldChild(a.swarm.fold, &resp.Aggregate)
	for i := 0; i < len(a.swarm.bitmap) && i < len(resp.Bitmap); i++ {
		a.swarm.bitmap[i] |= resp.Bitmap[i]
	}
	if d := resp.Depth + 1; d > a.swarm.depth {
		a.swarm.depth = d
	}
	a.swarm.folded++
	return nil
}

// SwarmRespond finalises the pending round and emits the aggregate frame
// through respond. The round is consumed; a node answers each request at
// most once.
func (a *Anchor) SwarmRespond(respond func([]byte)) {
	var out []byte
	a.M.Submit(a.CodeAttest, func(e *mcu.Exec) {
		if !a.swarm.active {
			return
		}
		resp := protocol.SwarmResp{
			Depth: a.swarm.depth,
			Root:  a.cfg.SwarmIndex,
			Nonce: a.swarm.nonce,
		}
		if a.swarm.folded == 0 {
			resp.Aggregate = a.swarm.own
		} else {
			e.Tick(cost.SHA1HMACPerBlock)
			protocol.SwarmFoldFinish(a.swarm.fold, &resp.Aggregate)
		}
		resp.Bitmap = a.swarm.bitmap
		a.swarm.active = false
		out = resp.Encode()
	}, func(*mcu.Exec) {
		if respond != nil && out != nil {
			respond(out)
		}
	})
}
