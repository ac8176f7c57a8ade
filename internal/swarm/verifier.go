package swarm

import (
	"crypto/hmac"
	"crypto/sha1"
	"errors"
	"fmt"

	"proverattest/internal/protocol"
)

// Verifier checks swarm aggregate responses by recomputing the expected
// aggregate from per-device verified state — golden memory digests
// (memoized once per device, request-independent) and expected monitor
// epochs — in one allocation-free pass over the subtree, then drives
// bisection down the tree when the aggregate disagrees. A Verifier holds
// one MAC per member and one under K_Swarm; it is not safe for concurrent
// use.
type Verifier struct {
	topo  *Topology
	fleet int // fixed member-index space; survives Without rebuilds

	gate   *protocol.MAC     // keyed K_Swarm: request tags
	macs   []*protocol.MAC   // per member, keyed K_Attest
	memDig [][sha1.Size]byte // memoized HMAC(K_i, "swarm-mem-v1" ‖ golden)
	epoch  []uint32          // expected monitor epoch per member

	treeID uint64
	nonce  uint64

	// Scratch, sized at construction so Check never allocates.
	aggs   [][sha1.Size]byte // expected aggregate per tree position
	own    [sha1.Size]byte
	signed []byte
	kidbuf []int

	Stats VerifierStats
}

// VerifierStats counts verifier-side outcomes and traffic.
type VerifierStats struct {
	Rounds     uint64 // aggregate checks performed
	Accepted   uint64
	Mismatches uint64 // aggregate tag disagreed
	Missing    uint64 // tag fine but members absent
	Bisections uint64 // bisection probes issued
}

// Static check errors — the reject paths are adversary-driven.
var (
	ErrSwarmUnsolicited = errors.New("swarm: response does not match the outstanding request")
	ErrSwarmBitmap      = errors.New("swarm: presence bitmap malformed or structurally invalid")
	ErrSwarmMismatch    = errors.New("swarm: aggregate tag mismatch")
	ErrSwarmMissing     = errors.New("swarm: aggregate verified but members are missing")
	ErrSwarmDepth       = errors.New("swarm: reported depth disagrees with present set")
)

// NewVerifier builds the verifier side of a swarm deployment. Expected
// epochs start at 1: members power up with the monitor dirty at epoch 0,
// so their first swarm round always performs a full measurement under
// epoch 1.
func NewVerifier(p Params) (*Verifier, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := len(p.IDs)
	sk := protocol.DeriveSwarmKey(p.Master)
	v := &Verifier{
		topo:   NewTopology(n, p.Fanout, p.Seed),
		fleet:  n,
		gate:   protocol.NewMAC(sk[:]),
		macs:   make([]*protocol.MAC, n),
		memDig: make([][sha1.Size]byte, n),
		epoch:  make([]uint32, n),
		aggs:   make([][sha1.Size]byte, n),
		signed: make([]byte, 0, 32),
		kidbuf: make([]int, 0, 16),
	}
	// Tree id binds fleet size, fanout and permutation seed — enough to
	// detect a topology-generation mismatch between coordinator restarts.
	v.treeID = uint64(n)<<40 ^ uint64(uint32(v.topo.Fanout()))<<32 ^ uint64(uint32(p.Seed))
	for i := range p.IDs {
		key := p.deviceKey(i)
		v.macs[i] = protocol.NewMAC(key[:])
		protocol.SwarmMemDigestInto(v.macs[i], p.Golden, &v.memDig[i])
		v.epoch[i] = 1
	}
	return v, nil
}

// Topology exposes the verifier's current tree (read-only use).
func (v *Verifier) Topology() *Topology { return v.topo }

// TreeID is the topology-generation identifier stamped into requests.
func (v *Verifier) TreeID() uint64 { return v.treeID }

// SetEpoch records member's monitor epoch as observed by a direct 1:1
// full round — the resync contract after an epoch-desync mismatch.
func (v *Verifier) SetEpoch(member int, epoch uint32) {
	if member >= 0 && member < len(v.epoch) {
		v.epoch[member] = epoch
	}
}

// ExpectedEpoch reports the epoch the verifier currently requires of
// member's own tag.
func (v *Verifier) ExpectedEpoch(member int) uint32 {
	if member < 0 || member >= len(v.epoch) {
		return 0
	}
	return v.epoch[member]
}

// Remove drops a lost member: the tree is rebuilt with survivors in
// relative order (Topology.Without) and subsequent rounds expect the
// member's presence bit clear. The member-index space — and therefore the
// wire bitmap width — is unchanged.
func (v *Verifier) Remove(member int) {
	v.topo = v.topo.Without(member)
}

// NewRequest issues a signed aggregate request addressed at root's
// subtree (ownOnly for a bisection leaf probe). Nonces are strictly
// monotonic, so bisection probes stay fresh at every node.
func (v *Verifier) NewRequest(root int, ownOnly bool) *protocol.SwarmReq {
	v.nonce++
	req := &protocol.SwarmReq{
		OwnOnly: ownOnly,
		Root:    uint16(root),
		Nonce:   v.nonce,
		TreeID:  v.treeID,
	}
	req.Sign(v.gate)
	return req
}

// Check verifies resp against req: the response must echo the request,
// the presence bitmap must be structurally valid (fleet-width, no bits
// outside the addressed subtree, no present member under an absent
// parent), and the aggregate tag must equal the expected aggregate
// recomputed from golden digests and expected epochs. Allocation-free
// after warm-up.
//
// A structurally valid round with every subtree member present but a
// wrong tag returns ErrSwarmMismatch; a valid tag over an incomplete
// present set returns ErrSwarmMissing (AppendMissing enumerates the
// absentees). Both are bisection triggers.
func (v *Verifier) Check(req *protocol.SwarmReq, resp *protocol.SwarmResp) error {
	v.Stats.Rounds++
	if resp.Nonce != req.Nonce || resp.Root != req.Root {
		return ErrSwarmUnsolicited
	}
	rootPos := v.topo.Pos(int(req.Root))
	if rootPos < 0 {
		return ErrSwarmUnsolicited
	}
	if len(resp.Bitmap) != protocol.SwarmBitmapLen(v.fleet) {
		return ErrSwarmBitmap
	}
	if !protocol.SwarmBit(resp.Bitmap, int(req.Root)) {
		// A response vouches for its sender at minimum.
		return ErrSwarmBitmap
	}

	// Structural pass over the presence bitmap: every set bit must be a
	// live member inside the addressed subtree whose ancestors up to the
	// root are also present (aggregation cannot skip a hop). Track the
	// deepest present member for the depth cross-check, and whether any
	// subtree member is absent.
	fanout := v.topo.Fanout()
	maxHops, missing := 0, false
	for m := 0; m < v.fleet; m++ {
		p := v.topo.Pos(m)
		inSubtree := false
		hops := 0
		if p >= 0 {
			q := p
			for q > rootPos {
				q = (q - 1) / fanout
				hops++
			}
			inSubtree = q == rootPos
		}
		if !protocol.SwarmBit(resp.Bitmap, m) {
			if inSubtree && !(req.OwnOnly && m != int(req.Root)) {
				missing = true
			}
			continue
		}
		if !inSubtree {
			return ErrSwarmBitmap
		}
		if req.OwnOnly && m != int(req.Root) {
			return ErrSwarmBitmap
		}
		if m != int(req.Root) {
			parent, _ := v.topo.Parent(m)
			if !protocol.SwarmBit(resp.Bitmap, parent) {
				return ErrSwarmBitmap
			}
		}
		if hops > maxHops {
			maxHops = hops
		}
	}

	// Expected aggregate: walk positions high→low within the subtree so
	// every child's expected aggregate exists before its parent folds it.
	v.signed = req.AppendSignedBytes(v.signed[:0])
	for p := v.topo.Len() - 1; p >= rootPos; p-- {
		m := v.topo.MemberAt(p)
		if !protocol.SwarmBit(resp.Bitmap, m) {
			continue
		}
		// In-subtree check (set bits outside already rejected above).
		q := p
		for q > rootPos {
			q = (q - 1) / fanout
		}
		if q != rootPos {
			continue
		}
		mac := v.macs[m]
		protocol.SwarmOwnTagInto(mac, v.signed, uint16(m), v.epoch[m], &v.memDig[m], &v.own)
		first := p*fanout + 1
		folded := 0
		for c := first; c < first+fanout && c < v.topo.Len(); c++ {
			if !protocol.SwarmBit(resp.Bitmap, v.topo.MemberAt(c)) {
				continue
			}
			if folded == 0 {
				protocol.SwarmFoldStart(mac, &v.own)
			}
			protocol.SwarmFoldChild(mac, &v.aggs[c])
			folded++
		}
		if folded == 0 {
			v.aggs[p] = v.own
		} else {
			protocol.SwarmFoldFinish(mac, &v.aggs[p])
		}
	}

	if !hmac.Equal(v.aggs[rootPos][:], resp.Aggregate[:]) {
		v.Stats.Mismatches++
		return ErrSwarmMismatch
	}
	if missing {
		v.Stats.Missing++
		return ErrSwarmMissing
	}
	if int(resp.Depth) != maxHops {
		// The depth field is advisory (it is not under any MAC), but an
		// inconsistency means the fold structure disagrees with the
		// presence set — worth a bisection look.
		return ErrSwarmDepth
	}
	v.Stats.Accepted++
	return nil
}

// AppendMissing appends the members of root's subtree whose presence bit
// is clear in resp to dst and returns the extended slice.
func (v *Verifier) AppendMissing(root int, resp *protocol.SwarmResp, dst []int) []int {
	n := len(dst)
	dst = v.topo.Subtree(root, dst)
	missing := dst[:n]
	for _, m := range dst[n:] {
		if !protocol.SwarmBit(resp.Bitmap, m) {
			missing = append(missing, m)
		}
	}
	return missing
}

// Cause classifies a localized finding.
type Cause int

const (
	// CauseAbsent: the member contributed no evidence (offline, or an
	// ancestor path failure isolated it).
	CauseAbsent Cause = iota
	// CauseMismatch: the member's own tag disagrees with the verifier's
	// expected state — modified memory or a desynced monitor epoch.
	CauseMismatch
	// CauseFoldForgery: the member's own tag verifies and every child
	// subtree verifies in isolation, yet the member's fold does not —
	// the node (or the transport at its hop) forged or corrupted child
	// aggregates.
	CauseFoldForgery
)

func (c Cause) String() string {
	switch c {
	case CauseAbsent:
		return "absent"
	case CauseMismatch:
		return "mismatch"
	case CauseFoldForgery:
		return "fold-forgery"
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// Finding is one localized swarm failure.
type Finding struct {
	Member int
	Cause  Cause
}

// QueryFunc delivers one bisection probe to the addressed subtree root
// and returns its response (nil response = no answer before timeout).
type QueryFunc func(*protocol.SwarmReq) (*protocol.SwarmResp, error)

// Localize drives bisection below root after a failed round: re-query
// the subtree, and on failure probe the root's own tag and recurse into
// each child subtree, attributing every divergence to a member. The
// probe count is Stats.Bisections; clean subtrees are never descended
// into, so localization costs O(fanout · depth) probes per offender
// instead of O(n).
func (v *Verifier) Localize(root int, query QueryFunc) []Finding {
	var out []Finding
	v.localize(root, query, &out)
	return out
}

func (v *Verifier) localize(root int, query QueryFunc, out *[]Finding) bool {
	req := v.NewRequest(root, false)
	v.Stats.Bisections++
	resp, err := query(req)
	if err != nil || resp == nil {
		// The whole subtree is silent: the root is unreachable; its
		// children cannot be reached through it either, so flag the root
		// and probe the children independently.
		*out = append(*out, Finding{Member: root, Cause: CauseAbsent})
		v.kidbuf = v.topo.Children(root, v.kidbuf[:0])
		for _, c := range append([]int(nil), v.kidbuf...) {
			v.localize(c, query, out)
		}
		return false
	}
	switch cerr := v.Check(req, resp); cerr {
	case nil:
		return true
	case ErrSwarmMissing:
		for _, m := range v.AppendMissing(root, resp, nil) {
			*out = append(*out, Finding{Member: m, Cause: CauseAbsent})
		}
		return false
	default:
		// Aggregate disagrees (or is structurally bogus): split the
		// subtree into the root's own contribution and each child
		// subtree, and recurse into whichever parts fail.
		ownBad := false
		oreq := v.NewRequest(root, true)
		v.Stats.Bisections++
		oresp, oerr := query(oreq)
		if oerr != nil || oresp == nil || v.Check(oreq, oresp) != nil {
			ownBad = true
			*out = append(*out, Finding{Member: root, Cause: CauseMismatch})
		}
		kidsClean := true
		v.kidbuf = v.topo.Children(root, v.kidbuf[:0])
		for _, c := range append([]int(nil), v.kidbuf...) {
			if !v.localize(c, query, out) {
				kidsClean = false
			}
		}
		if !ownBad && kidsClean {
			*out = append(*out, Finding{Member: root, Cause: CauseFoldForgery})
		}
		return false
	}
}
