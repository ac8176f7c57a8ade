package swarm

import (
	"fmt"

	"proverattest/internal/channel"
	"proverattest/internal/core"
	"proverattest/internal/protocol"
	"proverattest/internal/sim"
)

// FleetSwarm drives swarm rounds over a core.Fleet on the simulated
// timeline: every hop is a kernel event with link latency, every node is
// a real anchor job on its simulated MCU (gate → own tag → fold →
// respond, energy-metered), and absent members surface through child
// timeouts exactly as they would over a radio. The verifier↔subtree-root
// leg runs over the member's channel; inner tree edges are modelled as
// direct kernel events with the same one-way latency.
type FleetSwarm struct {
	F *core.Fleet
	V *Verifier

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
	// ForgeChildren marks colluding subtree roots (see Mesh).
	ForgeChildren map[int]bool

	// TreeMessages counts frames crossing inner tree edges;
	// VerifierMessages counts frames on the verifier↔root leg — the
	// quantity swarm aggregation is supposed to crush from 2N to 2.
	TreeMessages     uint64
	VerifierMessages uint64
}

// NewFleetSwarm wires a swarm driver over a fleet built with
// FleetConfig.Fanout > 0.
func NewFleetSwarm(f *core.Fleet) (*FleetSwarm, error) {
	if f.SwarmKey == nil {
		return nil, fmt.Errorf("swarm: fleet not provisioned for swarm (FleetConfig.Fanout = 0)")
	}
	ids := make([]string, len(f.Members))
	for i := range ids {
		ids[i] = core.FleetDeviceID(i)
	}
	v, err := NewVerifier(Params{
		Master: core.FleetMasterSecret,
		IDs:    ids,
		Golden: f.Members[0].Dev.GoldenRAM(),
		Fanout: f.Topology.Fanout(),
	})
	if err != nil {
		return nil, err
	}
	// Adopt the fleet's topology (it may be seeded; the verifier rebuilt
	// one with seed 0 above).
	v.topo = f.Topology
	return &FleetSwarm{
		F:             f,
		V:             v,
		Hop:           sim.Millisecond,
		ChildTimeout:  2 * sim.Second,
		Absent:        make(map[int]bool),
		ForgeChildren: make(map[int]bool),
	}, nil
}

// RunRound runs one full aggregation round from the tree root and checks
// the aggregate: request down the tree, aggregate back up, one
// verifier-side frame each way. Returns the verifier's verdict
// (nil / ErrSwarmMissing / ErrSwarmMismatch / ...); the response is nil
// when the root never answered.
func (fs *FleetSwarm) RunRound() (*protocol.SwarmResp, error) {
	root, ok := fs.V.Topology().Root()
	if !ok {
		return nil, fmt.Errorf("swarm: empty topology")
	}
	return fs.Query(fs.V.NewRequest(root, false))
}

// Query delivers one signed request to its subtree root over the
// member's channel, drives the aggregation on the kernel, and checks the
// result — also the bisection QueryFunc for Localize.
func (fs *FleetSwarm) Query(req *protocol.SwarmReq) (*protocol.SwarmResp, error) {
	member := int(req.Root)
	if member < 0 || member >= len(fs.F.Members) {
		return nil, fmt.Errorf("swarm: no member %d", member)
	}
	s := fs.F.Members[member]

	var got *protocol.SwarmResp
	s.SwarmReqHandler = func(payload []byte, reply func([]byte)) {
		fs.collect(member, payload, req.OwnOnly, func(out []byte) {
			reply(out)
		})
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

	if got == nil {
		return nil, nil // timeout — the subtree root is unreachable
	}
	return got, nil
}

// CheckedRound is RunRound plus the aggregate check in one call.
func (fs *FleetSwarm) CheckedRound() (*protocol.SwarmResp, error) {
	root, _ := fs.V.Topology().Root()
	req := fs.V.NewRequest(root, false)
	resp, err := fs.Query(req)
	if err != nil {
		return nil, err
	}
	if resp == nil {
		return nil, ErrSwarmUnsolicited
	}
	return resp, fs.V.Check(req, resp)
}

// collect runs the aggregation protocol at member: gate + own tag via
// the anchor, then fan the request to the children, fold their responses
// in child order, and respond upward. Everything is kernel events — the
// recursion returns immediately and done fires when the subtree's
// aggregate frame is ready.
func (fs *FleetSwarm) collect(member int, frame []byte, ownOnly bool, done func([]byte)) {
	if fs.Absent[member] {
		return // never answers; the parent's timeout handles it
	}
	s := fs.F.Members[member]
	a := s.Dev.A
	a.HandleSwarmBegin(frame, func(err error) {
		if err != nil {
			return
		}
		kids := fs.V.Topology().Children(member, nil)
		if ownOnly || len(kids) == 0 {
			a.SwarmRespond(done)
			return
		}
		if fs.ForgeChildren[member] {
			fs.forgeAndRespond(member, kids, done)
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
				fs.collect(c, frame, false, func(out []byte) {
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

// forgeAndRespond is the colluding-subtree-root adversary on the sim
// fleet: fabricate child frames (full presence bits, made-up tags) and
// feed them through the anchor's fold, never contacting the children.
func (fs *FleetSwarm) forgeAndRespond(member int, kids []int, done func([]byte)) {
	a := fs.F.Members[member].Dev.A
	frames := make([][]byte, 0, len(kids))
	for _, c := range kids {
		frames = append(frames, forgedChild(fs.V.Topology(), len(fs.F.Members), c, fs.V.nonce).Encode())
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
