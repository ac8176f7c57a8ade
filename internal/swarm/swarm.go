// Package swarm is the verifier's half of collective (swarm)
// attestation over a fleet's spanning tree, in the SEDA family: provers
// aggregate keyed evidence up a tree so the verifier checks one aggregate
// frame instead of N responses — O(log n) round latency and O(1)
// verifier-side messages in the clean case, with bisection down the tree
// to localize the offending subtree on mismatch.
//
// The pieces:
//
//   - Topology: the deterministic spanning tree (a complete k-ary tree
//     over a seeded permutation of the members) that fixes both the
//     provers' fold order and the verifier's expected aggregate.
//   - Verifier: recomputes the expected aggregate from per-device
//     verified state in one zero-allocation pass, and drives bisection.
//   - Params and FleetIDs: the deployment's key material, member IDs and
//     tree shape, shared by both sides.
//
// The prover's half is internal/anchor (HandleSwarmBegin /
// SwarmFoldChild / SwarmRespond); core.FleetSwarm runs those anchors on
// the simulation kernel as a fleet. This package imports neither, so the
// verifier daemon links no simulator.
//
// Tag derivation is protocol's swarm-mem-v1 / swarm-own-v1 /
// swarm-fold-v1 chain; see internal/protocol/swarm.go and PROTOCOL.md
// "Swarm aggregation".
package swarm

import (
	"crypto/sha1"
	"fmt"

	"proverattest/internal/protocol"
)

// Params describes one swarm deployment: the key material and tree shape
// shared by provers and verifier.
type Params struct {
	// Master is the deployment master secret: per-device keys derive via
	// protocol.DeriveDeviceKey(Master, IDs[i]), the broadcast gate key
	// via protocol.DeriveSwarmKey(Master).
	Master []byte
	// IDs are the member device identifiers; tree index = slice index.
	IDs []string
	// Golden is the attested-memory image every member boots (uniform
	// fleet, as in the paper's deployment model).
	Golden []byte
	// Fanout is the tree arity (<=0 selects DefaultFanout).
	Fanout int
	// Seed permutes members across tree positions (0 = identity).
	Seed int64
}

func (p *Params) validate() error {
	if len(p.IDs) == 0 {
		return fmt.Errorf("swarm: no members")
	}
	if len(p.IDs) > 1<<16 {
		return fmt.Errorf("swarm: %d members exceeds the uint16 index space", len(p.IDs))
	}
	if len(p.Master) == 0 {
		return fmt.Errorf("swarm: empty master secret")
	}
	return nil
}

// FleetIDs returns the canonical device IDs of an n-member fleet,
// "prover-0000" onwards: ids[i] is member i's ID, the string its
// per-device key derives from on both sides.
func FleetIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("prover-%04d", i)
	}
	return ids
}

// deviceKey derives member i's K_Attest.
func (p *Params) deviceKey(i int) [sha1.Size]byte {
	return protocol.DeriveDeviceKey(p.Master, p.IDs[i])
}
