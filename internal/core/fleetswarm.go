package core

import (
	"fmt"

	"proverattest/internal/channel"
	"proverattest/internal/protocol"
	"proverattest/internal/sim"
	"proverattest/internal/swarm"
)

// FleetSwarm drives swarm rounds over a Fleet on the simulated timeline:
// every hop is a kernel event with link latency, every node is a real
// anchor job on its simulated MCU (gate → own tag → fold → respond,
// energy-metered), and absent members surface through child timeouts
// exactly as they would over a radio. The verifier↔subtree-root leg runs
// over the member's channel; inner tree edges are modelled as direct
// kernel events with the same one-way latency.
type FleetSwarm struct {
	F *Fleet
	V *swarm.Verifier

	// Hop is the one-way latency of a tree edge (default: 1 ms).
	Hop sim.Duration
	// ChildTimeout is the per-level wait budget: a node at subtree
	// height h waits ChildTimeout·(h+1) for its children before folding
	// what arrived. The default (2 s) clears a full 512 KB measurement —
	// 754 ms on the 24 MHz reference core — per level with room for
	// link latency.
	ChildTimeout sim.Duration

	// Absent members never answer (offline / partitioned).
	Absent map[int]bool
	// ForgeChildren marks colluding subtree roots: instead of forwarding
	// the request they invent presence bits and aggregate tags for their
	// entire subtrees. Detection must localize the colluder, not the
	// framed children.
	ForgeChildren map[int]bool

	// TreeMessages counts frames crossing inner tree edges;
	// VerifierMessages counts frames on the verifier↔root leg — the
	// quantity swarm aggregation is supposed to crush from 2N to 2.
	TreeMessages     uint64
	VerifierMessages uint64
}

// NewFleetSwarm wires a swarm driver over a fleet built with
// FleetConfig.Fanout > 0. Its verifier is built from the fleet's own
// (members, fanout, seed) triple, so it expects the fleet's tree.
func NewFleetSwarm(f *Fleet) (*FleetSwarm, error) {
	if f.SwarmKey == nil {
		return nil, fmt.Errorf("core: fleet not provisioned for swarm (FleetConfig.Fanout = 0)")
	}
	v, err := swarm.NewVerifier(swarm.Params{
		Master: FleetMasterSecret,
		IDs:    swarm.FleetIDs(len(f.Members)),
		Golden: f.Members[0].Dev.GoldenRAM(),
		Fanout: f.Topology.Fanout(),
		Seed:   f.topologySeed,
	})
	if err != nil {
		return nil, err
	}
	return &FleetSwarm{
		F:             f,
		V:             v,
		Hop:           sim.Millisecond,
		ChildTimeout:  2 * sim.Second,
		Absent:        make(map[int]bool),
		ForgeChildren: make(map[int]bool),
	}, nil
}

// Query delivers one signed request to its subtree root over the
// member's channel and drives the aggregation on the kernel. It returns
// the subtree's aggregate unchecked, or nil when the root never
// answered — the bisection QueryFunc for Localize.
func (fs *FleetSwarm) Query(req *protocol.SwarmReq) (*protocol.SwarmResp, error) {
	member := int(req.Root)
	if member < 0 || member >= len(fs.F.Members) {
		return nil, fmt.Errorf("core: no swarm member %d", member)
	}
	s := fs.F.Members[member]

	var got *protocol.SwarmResp
	s.SwarmReqHandler = func(payload []byte, reply func([]byte)) {
		fs.collect(member, req, payload, reply)
	}
	s.SwarmRespHandler = func(payload []byte) {
		resp := &protocol.SwarmResp{}
		if protocol.DecodeSwarmRespInto(payload, resp) == nil {
			fs.VerifierMessages++
			got = resp
		}
	}
	defer func() {
		s.SwarmReqHandler = nil
		s.SwarmRespHandler = nil
	}()

	fs.VerifierMessages++
	s.C.Send(channel.Verifier, channel.Prover, req.Encode())

	// Worst case: every level burns its full (height-scaled) timeout
	// budget plus propagation; one extra second absorbs MCU compute.
	height := sim.Duration(fs.V.Topology().Height() + 2)
	deadline := fs.F.K.Now() + height*height*fs.ChildTimeout + height*4*fs.Hop + sim.Second
	fs.F.RunUntil(deadline)
	return got, nil
}

// CheckedRound runs one full aggregation round from the tree root —
// request down the tree, aggregate back up, one verifier-side frame each
// way — and checks the aggregate. The error is the verifier's verdict
// (nil, swarm.ErrSwarmMissing, swarm.ErrSwarmMismatch, ...), or
// swarm.ErrSwarmUnsolicited when the root never answered.
func (fs *FleetSwarm) CheckedRound() (*protocol.SwarmResp, error) {
	root, _ := fs.V.Topology().Root()
	req := fs.V.NewRequest(root, false)
	resp, err := fs.Query(req)
	if err != nil {
		return nil, err
	}
	if resp == nil {
		return nil, swarm.ErrSwarmUnsolicited
	}
	return resp, fs.V.Check(req, resp)
}

// collect runs the aggregation protocol at member for req, which
// arrived as frame: gate + own tag via the anchor, then fan the request
// to the children, fold their responses in child order, and respond
// upward. Everything is kernel events — the recursion returns
// immediately and done fires when the subtree's aggregate frame is
// ready.
func (fs *FleetSwarm) collect(member int, req *protocol.SwarmReq, frame []byte, done func([]byte)) {
	if fs.Absent[member] {
		return // never answers; the parent's timeout handles it
	}
	a := fs.F.Members[member].Dev.A
	a.HandleSwarmBegin(frame, func(err error) {
		if err != nil {
			return
		}
		kids := fs.V.Topology().Children(member, nil)
		if req.OwnOnly || len(kids) == 0 {
			a.SwarmRespond(done)
			return
		}
		if fs.ForgeChildren[member] {
			fs.forgeAndRespond(member, kids, req.Nonce, done)
			return
		}
		responses := make([][]byte, len(kids))
		outstanding := len(kids)
		finished := false
		finish := func() {
			if finished {
				return
			}
			finished = true
			var feed func(i int)
			feed = func(i int) {
				if i == len(responses) {
					a.SwarmRespond(done)
					return
				}
				if responses[i] == nil {
					feed(i + 1)
					return
				}
				a.SwarmFoldChild(responses[i], func(error) { feed(i + 1) })
			}
			feed(0)
		}
		for i, c := range kids {
			i, c := i, c
			fs.TreeMessages++ // request down the edge
			fs.F.K.After(fs.Hop, func() {
				fs.collect(c, req, frame, func(out []byte) {
					fs.TreeMessages++ // response up the edge
					fs.F.K.After(fs.Hop, func() {
						if finished {
							return
						}
						responses[i] = out
						outstanding--
						if outstanding == 0 {
							finish()
						}
					})
				})
			})
		}
		// Budget scales with the member's subtree height so ancestors
		// outlast their descendants' own timeouts.
		h := fs.V.Topology().Height() - fs.V.Topology().Depth(member)
		fs.F.K.After(fs.ChildTimeout*sim.Duration(h+1), func() { finish() })
	})
}

// forgeAndRespond is the colluding subtree root: it fabricates its
// children's frames, echoing the nonce of the request it received, and
// feeds them through the anchor's fold without contacting the children.
func (fs *FleetSwarm) forgeAndRespond(member int, kids []int, nonce uint64, done func([]byte)) {
	a := fs.F.Members[member].Dev.A
	frames := make([][]byte, 0, len(kids))
	for _, c := range kids {
		frames = append(frames, forgedChild(fs.V.Topology(), len(fs.F.Members), c, nonce).Encode())
	}
	var feed func(i int)
	feed = func(i int) {
		if i == len(frames) {
			a.SwarmRespond(done)
			return
		}
		a.SwarmFoldChild(frames[i], func(error) { feed(i + 1) })
	}
	feed(0)
}

// forgedChild is the colluding subtree root's fabrication for child c of
// a fleet-member tree: the whole of c's subtree marked present, the live
// round's nonce echoed, a made-up aggregate tag. The colluder holds only
// its own key, so the presence bits are free to fake; the per-device
// keyed tags are not.
func forgedChild(topo *swarm.Topology, fleet, c int, nonce uint64) *protocol.SwarmResp {
	fake := &protocol.SwarmResp{
		Root:   uint16(c),
		Nonce:  nonce,
		Bitmap: make([]byte, protocol.SwarmBitmapLen(fleet)),
	}
	for i := range fake.Aggregate {
		fake.Aggregate[i] = byte(c*31 + i*7)
	}
	for _, m := range topo.Subtree(c, nil) {
		protocol.SetSwarmBit(fake.Bitmap, m)
	}
	return fake
}
