package swarm

import (
	"errors"
	"fmt"

	"proverattest/internal/core"
	"proverattest/internal/protocol"
)

// Mesh is an in-process swarm fleet: host Nodes wired by the shared
// topology, with per-edge message counting. It is the device fabric
// behind the server's swarm tests (only the tree root ever talks to the
// daemon socket) and the crossover sweep's prover side. Adversarial members are modelled
// in-mesh: Absent members never answer, ForgeChildren members fabricate
// their children's evidence instead of querying them.
type Mesh struct {
	Topo  *core.Topology
	Nodes []*Node

	// Absent members drop requests (offline / partitioned).
	Absent map[int]bool
	// ForgeChildren marks colluding subtree roots: instead of forwarding
	// the request they invent presence bits and aggregate tags for their
	// entire subtrees. Detection must localize the colluder, not the
	// framed children.
	ForgeChildren map[int]bool

	// TreeMessages counts frames crossing tree edges (request down +
	// response up per traversed edge); the verifier-side pair is counted
	// by the coordinator, not here.
	TreeMessages uint64

	fleet int
}

var errMeshAbsent = errors.New("swarm: member absent")

// NewMesh boots one Node per member, all on the golden image.
func NewMesh(p Params) (*Mesh, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := len(p.IDs)
	sk := protocol.DeriveSwarmKey(p.Master)
	m := &Mesh{
		Topo:          core.NewTopology(n, p.Fanout, p.Seed),
		Nodes:         make([]*Node, n),
		Absent:        make(map[int]bool),
		ForgeChildren: make(map[int]bool),
		fleet:         n,
	}
	for i := range m.Nodes {
		key := p.deviceKey(i)
		m.Nodes[i] = NewNode(i, key[:], sk[:], p.Golden, n)
	}
	return m, nil
}

// Collect runs one aggregation round over the subtree req addresses,
// writing the root's aggregate into resp. The recursion is depth-first
// in child order — exactly the fold order the verifier recomputes.
func (m *Mesh) Collect(req *protocol.SwarmReq, resp *protocol.SwarmResp) error {
	return m.collect(int(req.Root), req, resp)
}

// Query adapts Collect to the verifier's bisection QueryFunc.
func (m *Mesh) Query(req *protocol.SwarmReq) (*protocol.SwarmResp, error) {
	resp := &protocol.SwarmResp{}
	if err := m.Collect(req, resp); err != nil {
		if errors.Is(err, errMeshAbsent) {
			return nil, nil // timeout: no answer
		}
		return nil, err
	}
	return resp, nil
}

func (m *Mesh) collect(member int, req *protocol.SwarmReq, resp *protocol.SwarmResp) error {
	if member < 0 || member >= len(m.Nodes) {
		return fmt.Errorf("swarm: no member %d", member)
	}
	if m.Absent[member] {
		return errMeshAbsent
	}
	node := m.Nodes[member]
	if err := node.Begin(req); err != nil {
		return err
	}
	if !req.OwnOnly {
		kids := m.Topo.Children(member, nil)
		switch {
		case m.ForgeChildren[member]:
			for _, c := range kids {
				node.AddChild(forgedChild(m.Topo, m.fleet, c, node.nonce)) //nolint:errcheck // forger ignores its own errors
			}
		default:
			for _, c := range kids {
				var child protocol.SwarmResp
				m.TreeMessages++ // request down the edge
				if err := m.collect(c, req, &child); err != nil {
					continue // absent subtree: presence bits stay clear
				}
				m.TreeMessages++ // response up the edge
				if err := node.AddChild(&child); err != nil {
					return err
				}
			}
		}
	}
	return node.FinishInto(resp)
}

// forgedChild is the colluding subtree root's fabrication for child c of
// a fleet-member tree: the whole of c's subtree marked present, the live
// round's nonce echoed, a made-up aggregate tag. The colluder holds only
// its own key, so the presence bits are free to fake; the per-device
// keyed tags are not.
func forgedChild(topo *core.Topology, fleet, c int, nonce uint64) *protocol.SwarmResp {
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
