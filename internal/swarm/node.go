package swarm

import (
	"crypto/hmac"
	"crypto/sha1"
	"errors"

	"proverattest/internal/protocol"
)

// Node is a host-level swarm prover: the same three-phase round state
// machine as the anchor's HandleSwarmBegin / SwarmFoldChild /
// SwarmRespond, minus the simulated MCU underneath. The server's swarm
// tests use a Mesh of Nodes as the device fabric behind the gateway
// connection; the crossover sweep times rounds over them. Begin/AddChild/FinishInto are allocation-free
// after warm-up — the per-hop aggregate fold is a hot path on hardware
// that has no allocator at all, and the host model keeps that honest. A
// Node holds two MACs and is not safe for concurrent use.
type Node struct {
	// Index is the member's tree index (bitmap bit, own-tag binding).
	Index uint16

	mem   []byte
	mac   *protocol.MAC // keyed K_Attest
	gate  *protocol.MAC // keyed K_Swarm
	fleet int

	lastNonce uint64

	// RATA-style measurement memo: digest + the monitor epoch it was
	// measured under. clean models the write-monitor latch (armed, no
	// stores since the last measurement); epoch models the hardware
	// rearm counter.
	epoch  uint32
	digest [sha1.Size]byte
	have   bool
	clean  bool

	// Pending round.
	active  bool
	ownOnly bool
	nonce   uint64
	own     [sha1.Size]byte
	folded  int
	depth   uint8
	bitmap  []byte
	signed  []byte

	Stats NodeStats
}

// NodeStats counts a node's round outcomes.
type NodeStats struct {
	Rounds       uint64 // accepted Begin calls
	Measurements uint64 // full memory measurements
	FastOwn      uint64 // own tags served from the stored digest
	Rejected     uint64 // gate rejections (auth, freshness, framing)
}

// Static node errors: the reject paths are adversary-driven.
var (
	ErrNodeAuth      = errors.New("swarm: request gate tag mismatch")
	ErrNodeFreshness = errors.New("swarm: request nonce not fresh")
	ErrNodeNoRound   = errors.New("swarm: no round in flight")
	ErrNodeOwnOnly   = errors.New("swarm: own-only round accepts no children")
	ErrNodeNonce     = errors.New("swarm: child response nonce mismatch")
)

// NewNode builds member index of an n-member swarm. key is the member's
// K_Attest, swarmKey the fleet-wide gate key, mem the member's attested
// memory (copied, then owned and mutable via Mem).
func NewNode(index int, key, swarmKey, mem []byte, fleet int) *Node {
	return &Node{
		Index:  uint16(index),
		mem:    append([]byte(nil), mem...),
		mac:    protocol.NewMAC(key),
		gate:   protocol.NewMAC(swarmKey),
		fleet:  fleet,
		bitmap: make([]byte, protocol.SwarmBitmapLen(fleet)),
		signed: make([]byte, 0, 32),
	}
}

// Mem exposes the node's attested memory. Callers that mutate it must
// also call Taint (honest hardware's write monitor would) or LieRearm
// (the liar adversary's unprotected rearm).
func (n *Node) Mem() []byte { return n.mem }

// Taint models the write-monitor latch firing: the next Begin performs a
// full re-measurement under a fresh epoch.
func (n *Node) Taint() { n.clean = false }

// LieRearm models application code abusing an unprotected rearm
// register: the latch clears and the epoch advances, but no measurement
// happens — the stored digest goes stale. The epoch binding in the own
// tag is what surfaces this at the verifier.
func (n *Node) LieRearm() {
	n.clean = true
	n.epoch++
}

// Epoch reports the node's current monitor epoch (for verifier resync).
func (n *Node) Epoch() uint32 { return n.epoch }

// Begin gates req and computes the node's own tag, opening a round.
// Allocation-free after the first call.
func (n *Node) Begin(req *protocol.SwarmReq) error {
	n.signed = req.AppendSignedBytes(n.signed[:0])
	if !hmac.Equal(n.gate.Tag(n.signed)[:], req.Tag) {
		n.Stats.Rejected++
		return ErrNodeAuth
	}
	if req.Nonce <= n.lastNonce {
		n.Stats.Rejected++
		return ErrNodeFreshness
	}
	n.lastNonce = req.Nonce

	// Own digest: stored memo while clean under the current epoch,
	// full measurement otherwise (rearm first — epoch advances, so a
	// racing store re-dirties the fresh epoch, never the vouched one).
	if n.clean && n.have {
		n.Stats.FastOwn++
	} else {
		n.epoch++
		n.clean = true
		protocol.SwarmMemDigestInto(n.mac, n.mem, &n.digest)
		n.have = true
		n.Stats.Measurements++
	}
	protocol.SwarmOwnTagInto(n.mac, n.signed, n.Index, n.epoch, &n.digest, &n.own)

	for i := range n.bitmap {
		n.bitmap[i] = 0
	}
	protocol.SetSwarmBit(n.bitmap, int(n.Index))
	n.active = true
	n.ownOnly = req.OwnOnly
	n.nonce = req.Nonce
	n.folded = 0
	n.depth = 0
	n.Stats.Rounds++
	return nil
}

// AddChild folds one child's aggregate into the pending round. Children
// must arrive in child order. Allocation-free.
func (n *Node) AddChild(resp *protocol.SwarmResp) error {
	if !n.active {
		return ErrNodeNoRound
	}
	if n.ownOnly {
		return ErrNodeOwnOnly
	}
	if resp.Nonce != n.nonce {
		return ErrNodeNonce
	}
	if n.folded == 0 {
		protocol.SwarmFoldStart(n.mac, &n.own)
	}
	protocol.SwarmFoldChild(n.mac, &resp.Aggregate)
	for i := 0; i < len(n.bitmap) && i < len(resp.Bitmap); i++ {
		n.bitmap[i] |= resp.Bitmap[i]
	}
	if d := resp.Depth + 1; d > n.depth {
		n.depth = d
	}
	n.folded++
	return nil
}

// FinishInto closes the round and writes the aggregate response into
// resp (bitmap appended into resp.Bitmap[:0]). Allocation-free once
// resp's bitmap has capacity.
func (n *Node) FinishInto(resp *protocol.SwarmResp) error {
	if !n.active {
		return ErrNodeNoRound
	}
	if n.folded == 0 {
		resp.Aggregate = n.own
	} else {
		protocol.SwarmFoldFinish(n.mac, &resp.Aggregate)
	}
	resp.Depth = n.depth
	resp.Root = n.Index
	resp.Nonce = n.nonce
	resp.Bitmap = append(resp.Bitmap[:0], n.bitmap...)
	n.active = false
	return nil
}
