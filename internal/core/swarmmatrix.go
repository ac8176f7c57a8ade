package core

import (
	"fmt"

	"proverattest/internal/anchor"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
	"proverattest/internal/swarm"
)

// The swarm adversary matrix: every way a member (or the untrusted
// aggregation fabric) can try to cheat the aggregate, each required to be
// detected by the aggregate check AND localized to the offending subtree
// by bisection.

// SwarmAdversary names one behaviour in the matrix.
type SwarmAdversary int

const (
	// SwarmHonestFleet is the clean baseline: the aggregate verifies,
	// zero bisection probes, and after the first (full-measurement)
	// round every member answers from its stored digest.
	SwarmHonestFleet SwarmAdversary = iota
	// SwarmAbsentMember drops an interior member: its whole subtree goes
	// silent, the presence bitmap exposes the gap, and after removal the
	// rebuilt tree verifies clean without it.
	SwarmAbsentMember
	// SwarmColluder is a subtree root that forges its children's
	// aggregate tags and presence bits instead of querying them. The
	// per-device keyed fold pins the forgery on the colluder, not the
	// framed children.
	SwarmColluder
	// SwarmDirtyMember has its attested RAM modified mid-deployment; the
	// write monitor latches, the next round re-measures, and the
	// deviating digest breaks the aggregate.
	SwarmDirtyMember
	// SwarmLiarMember modifies RAM and rearms the (unprotected) monitor
	// from application code to hide inside a clean aggregate: the rearm
	// bumps the hardware epoch, desyncing its own tag from the
	// verifier's record.
	SwarmLiarMember
)

func (a SwarmAdversary) String() string {
	switch a {
	case SwarmHonestFleet:
		return "honest"
	case SwarmAbsentMember:
		return "absent"
	case SwarmColluder:
		return "colluder"
	case SwarmDirtyMember:
		return "dirty"
	case SwarmLiarMember:
		return "liar"
	}
	return fmt.Sprintf("swarm-adversary(%d)", int(a))
}

// SwarmCellResult is one adversary-matrix cell, decided by observation.
type SwarmCellResult struct {
	Adversary SwarmAdversary
	Provers   int
	Fanout    int
	// Target is the compromised member (-1 for the honest cell).
	Target int

	// CleanRounds is how many warm-up rounds verified before the
	// compromise; CleanVerifierMsgs the verifier-side frames each took
	// (the O(1) headline); CleanTreeMsgs the tree-edge frames.
	CleanRounds      int
	CleanVerifierMsg uint64
	CleanTreeMsgs    uint64

	// Detected is whether the post-compromise aggregate check failed;
	// Verdict is the check error's text.
	Detected bool
	Verdict  string
	// Localized is whether bisection attributed the failure to the
	// target member, with the right cause; Findings lists everything it
	// flagged and BisectProbes what the localization cost.
	Localized    bool
	Findings     []swarm.Finding
	BisectProbes uint64

	// RecoveredClean is whether the round after recovery (removing the
	// absent member / resyncing the liar's epoch / restoring memory)
	// verified again. Always exercised so the matrix proves the resync
	// contract, not just detection.
	RecoveredClean bool
}

// RunSwarmCell plays one adversary cell on an n-member monitored fleet.
func RunSwarmCell(adv SwarmAdversary, n, fanout int) (SwarmCellResult, error) {
	res := SwarmCellResult{Adversary: adv, Provers: n, Fanout: fanout, Target: -1}

	prot := anchor.FullProtection()
	if adv == SwarmLiarMember {
		// The liar cell runs without the EA-MPU rearm rule — with it the
		// rearm faults and the cell degenerates to SwarmDirtyMember.
		prot.Monitor = false
	}
	fleet, err := NewFleet(FleetConfig{
		Provers: n,
		Fanout:  fanout,
		Scenario: ScenarioConfig{
			Freshness:  protocol.FreshCounter,
			Auth:       protocol.AuthHMACSHA1,
			Protection: prot,
			Monitor:    true,
		},
	})
	if err != nil {
		return res, err
	}
	fs, err := NewFleetSwarm(fleet)
	if err != nil {
		return res, err
	}

	// Two clean rounds: the first full-measures everywhere (epoch 0→1),
	// the second rides every member's stored digest.
	for i := 0; i < 2; i++ {
		before := fs.VerifierMessages
		treeBefore := fs.TreeMessages
		if _, err := fs.CheckedRound(); err != nil {
			return res, fmt.Errorf("core: swarm clean round %d failed: %w", i+1, err)
		}
		res.CleanRounds++
		res.CleanVerifierMsg = fs.VerifierMessages - before
		res.CleanTreeMsgs = fs.TreeMessages - treeBefore
	}

	// Compromise: pick an interior member (a child of the root) so
	// localization has to tell subtree levels apart — except the honest
	// cell, which compromises nobody.
	topo := fs.V.Topology()
	root, _ := topo.Root()
	kids := topo.Children(root, nil)
	target := kids[0]
	appPC := mcu.FlashRegion.Start
	dirtyAddr := mcu.RAMRegion.Start + 0x40000

	switch adv {
	case SwarmHonestFleet:
		target = -1
	case SwarmAbsentMember:
		fs.Absent[target] = true
	case SwarmColluder:
		fs.ForgeChildren[target] = true
	case SwarmDirtyMember, SwarmLiarMember:
		// Target a deep member instead: the dirty/liar story is about one
		// device hiding inside the aggregate, not about fabric position.
		target = topo.MemberAt(topo.Len() - 1)
		dev := fleet.Members[target].Dev
		dev.M.Bus.Write(appPC, dirtyAddr, []byte{0xE7, 0xE7, 0xE7, 0xE7})
		if adv == SwarmLiarMember {
			if f := dev.M.Bus.Store32(appPC, mcu.MonCtrlAddr, mcu.MonRearm); f != nil {
				return res, fmt.Errorf("core: swarm liar rearm unexpectedly blocked: %v", f)
			}
		}
	}
	res.Target = target

	// The compromised round.
	_, err = fs.CheckedRound()
	if adv == SwarmHonestFleet {
		res.Detected = err != nil
		res.RecoveredClean = err == nil
		if err != nil {
			res.Verdict = err.Error()
		}
		return res, nil
	}
	if err == nil {
		res.Verdict = "accepted (undetected)"
		return res, nil
	}
	res.Detected = true
	res.Verdict = err.Error()

	// Localize by bisection.
	probesBefore := fs.V.Stats.Bisections
	res.Findings = fs.V.Localize(root, fs.Query)
	res.BisectProbes = fs.V.Stats.Bisections - probesBefore
	wantCause := map[SwarmAdversary]swarm.Cause{
		SwarmAbsentMember: swarm.CauseAbsent,
		SwarmColluder:     swarm.CauseFoldForgery,
		SwarmDirtyMember:  swarm.CauseMismatch,
		SwarmLiarMember:   swarm.CauseMismatch,
	}[adv]
	for _, f := range res.Findings {
		if f.Member == target && f.Cause == wantCause {
			res.Localized = true
		}
	}

	// Recovery, proving the contract each failure mode prescribes.
	switch adv {
	case SwarmAbsentMember:
		// Member loss: rebuild the tree without it (and without its
		// subtree's now-orphaned members re-parented by the rebuild).
		fs.V.Remove(target)
	case SwarmColluder:
		fs.ForgeChildren = make(map[int]bool)
	case SwarmDirtyMember, SwarmLiarMember:
		// Restore the image, then resync via a direct full measurement:
		// the next swarm round's full re-measure lands on a fresh epoch,
		// which the verifier learns through the 1:1 resync round.
		dev := fleet.Members[target].Dev
		golden := dev.GoldenRAM()
		off := dirtyAddr - mcu.RAMRegion.Start
		dev.M.Bus.Write(appPC, dirtyAddr, golden[off:off+4])
		probe := fs.V.NewRequest(target, true)
		presp, qerr := fs.Query(probe)
		if qerr != nil || presp == nil {
			return res, fmt.Errorf("core: swarm resync probe failed: %v", qerr)
		}
		// The probe's own tag reflects the member's current epoch; scan
		// forward for the epoch that makes it verify (bounded — epochs
		// only advance by explicit rearms).
		base := fs.V.ExpectedEpoch(target)
		for e := base; e < base+16; e++ {
			fs.V.SetEpoch(target, e)
			if fs.V.Check(probe, presp) == nil {
				break
			}
		}
	}
	_, rerr := fs.CheckedRound()
	res.RecoveredClean = rerr == nil
	return res, nil
}

// RunSwarmMatrix plays every adversary cell on an n-member fleet.
func RunSwarmMatrix(n, fanout int) ([]SwarmCellResult, error) {
	var out []SwarmCellResult
	for _, adv := range []SwarmAdversary{
		SwarmHonestFleet, SwarmAbsentMember, SwarmColluder, SwarmDirtyMember, SwarmLiarMember,
	} {
		r, err := RunSwarmCell(adv, n, fanout)
		if err != nil {
			return nil, fmt.Errorf("core: swarm cell %v: %w", adv, err)
		}
		out = append(out, r)
	}
	return out, nil
}
