package swarm_test

import (
	"testing"

	"proverattest/internal/anchor"
	"proverattest/internal/core"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
	"proverattest/internal/swarm"
)

// The verifier is checked against the real prover: every response comes
// from simulated anchors (internal/anchor's swarm round) wired into a
// tree by core.FleetSwarm. An external test package may import core,
// which imports swarm.

// fleetConfig is an n-member monitored fleet at the given fanout.
func fleetConfig(n, fanout int) core.FleetConfig {
	return core.FleetConfig{
		Provers: n,
		Fanout:  fanout,
		Scenario: core.ScenarioConfig{
			Freshness:  protocol.FreshCounter,
			Auth:       protocol.AuthHMACSHA1,
			Protection: anchor.FullProtection(),
			Monitor:    true,
		},
	}
}

func newFleet(t *testing.T, cfg core.FleetConfig) *core.FleetSwarm {
	t.Helper()
	f, err := core.NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := core.NewFleetSwarm(f)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// runRound issues one full round at the tree root and returns the
// request with the root's aggregate, unchecked.
func runRound(t *testing.T, fs *core.FleetSwarm) (*protocol.SwarmReq, *protocol.SwarmResp) {
	t.Helper()
	root, ok := fs.V.Topology().Root()
	if !ok {
		t.Fatal("no root")
	}
	req := fs.V.NewRequest(root, false)
	resp, err := fs.Query(req)
	if err != nil || resp == nil {
		t.Fatalf("round got no aggregate: %v", err)
	}
	return req, resp
}

// corrupt flips one bit of member's attested RAM at off, stored from
// application code: the write monitor latches, so the member's next
// round re-measures, under a new epoch, memory that no longer matches
// golden.
func corrupt(t *testing.T, fs *core.FleetSwarm, member int, off uint32) {
	t.Helper()
	b := []byte{core.GoldenRAMPattern()[off] ^ 1}
	if f := fs.F.Members[member].Dev.M.Bus.Write(mcu.FlashRegion.Start, mcu.RAMRegion.Start+mcu.Addr(off), b); f != nil {
		t.Fatalf("application write faulted: %v", f)
	}
}

// TestSwarmCleanRoundVerifies: the base contract — an honest fleet's
// aggregate verifies, and the second round rides every member's stored
// digest (no re-measurement).
func TestSwarmCleanRoundVerifies(t *testing.T) {
	for _, tc := range []struct{ n, fanout int }{
		{1, 2}, {2, 2}, {7, 2}, {16, 2}, {16, 4}, {64, 8}, {9, 3},
	} {
		fs := newFleet(t, fleetConfig(tc.n, tc.fanout))
		req, resp := runRound(t, fs)
		if err := fs.V.Check(req, resp); err != nil {
			t.Fatalf("n=%d fanout=%d: clean round rejected: %v", tc.n, tc.fanout, err)
		}
		req, resp = runRound(t, fs)
		if err := fs.V.Check(req, resp); err != nil {
			t.Fatalf("n=%d fanout=%d: second round rejected: %v", tc.n, tc.fanout, err)
		}
		for i, m := range fs.F.Members {
			if got := m.Dev.A.Stats.Measurements; got != 1 {
				t.Fatalf("n=%d member %d measured %d times over two rounds, want 1", tc.n, i, got)
			}
		}
		if h := fs.V.Topology().Height(); int(resp.Depth) != h {
			t.Fatalf("n=%d: depth %d, want tree height %d", tc.n, resp.Depth, h)
		}
	}
}

// TestSwarmSeededTopologyVerifies: prover fold order and verifier
// recomputation agree under a permuted tree too, and the verifier
// expects the very tree the fleet was built with.
func TestSwarmSeededTopologyVerifies(t *testing.T) {
	cfg := fleetConfig(23, 3)
	cfg.TopologySeed = 424242
	fs := newFleet(t, cfg)
	for p := 0; p < fs.F.Topology.Len(); p++ {
		if got, want := fs.V.Topology().MemberAt(p), fs.F.Topology.MemberAt(p); got != want {
			t.Fatalf("position %d: verifier expects member %d, fleet has %d", p, got, want)
		}
	}
	if root, _ := fs.V.Topology().Root(); root == 0 {
		t.Fatal("seed left the identity order in place")
	}
	req, resp := runRound(t, fs)
	if err := fs.V.Check(req, resp); err != nil {
		t.Fatalf("seeded round rejected: %v", err)
	}
}

// TestSwarmReplayRejected: the anchor's swarm gate takes strictly
// increasing nonces, so a captured request replayed dies at the first
// hop with no answer. A request with a forged gate tag gets no answer
// either, and neither costs the member a measurement.
func TestSwarmReplayRejected(t *testing.T) {
	fs := newFleet(t, fleetConfig(7, 2))
	req, resp := runRound(t, fs)
	if err := fs.V.Check(req, resp); err != nil {
		t.Fatal(err)
	}
	root, _ := fs.V.Topology().Root()
	gate := &fs.F.Members[root].Dev.A.Stats
	measured := gate.Measurements

	if resp, _ := fs.Query(req); resp != nil {
		t.Fatal("replayed request answered")
	}
	if gate.FreshnessRejected != 1 {
		t.Fatalf("replay not refused as stale: %+v", *gate)
	}
	forged := *req
	forged.Nonce += 100
	forged.Tag = append([]byte(nil), req.Tag...)
	forged.Tag[0] ^= 1
	if resp, _ := fs.Query(&forged); resp != nil {
		t.Fatal("forged request answered")
	}
	if gate.AuthRejected != 1 {
		t.Fatalf("forged gate tag not refused: %+v", *gate)
	}
	if gate.Measurements != measured {
		t.Fatalf("refused requests cost %d measurements", gate.Measurements-measured)
	}
}

// TestSwarmResponseSubstitutionRejected: swapping another round's (or
// another subtree's) response in fails the unsolicited check before any
// crypto runs.
func TestSwarmResponseSubstitutionRejected(t *testing.T) {
	fs := newFleet(t, fleetConfig(7, 2))
	req1, resp1 := runRound(t, fs)
	if err := fs.V.Check(req1, resp1); err != nil {
		t.Fatal(err)
	}
	req2, resp2 := runRound(t, fs)
	if err := fs.V.Check(req2, resp1); err != swarm.ErrSwarmUnsolicited {
		t.Fatalf("old response accepted against new request: %v", err)
	}
	if err := fs.V.Check(req2, resp2); err != nil {
		t.Fatal(err)
	}
}

// TestSwarmBitmapStructure: structurally invalid presence bitmaps are
// rejected without an aggregate comparison — wrong width, bits outside
// the subtree, present member under an absent parent, missing sender.
func TestSwarmBitmapStructure(t *testing.T) {
	fs := newFleet(t, fleetConfig(15, 2))
	v := fs.V
	root, _ := v.Topology().Root()
	req, resp := runRound(t, fs)

	short := *resp
	short.Bitmap = resp.Bitmap[:1]
	if err := v.Check(req, &short); err != swarm.ErrSwarmBitmap {
		t.Fatalf("short bitmap: %v", err)
	}

	kids := v.Topology().Children(root, nil)
	gapped := *resp
	gapped.Bitmap = append([]byte(nil), resp.Bitmap...)
	// Clear an interior member while leaving its children present: a
	// present member under an absent parent cannot happen in a real fold.
	gapped.Bitmap[kids[0]/8] &^= 1 << (kids[0] % 8)
	if err := v.Check(req, &gapped); err != swarm.ErrSwarmBitmap {
		t.Fatalf("gapped bitmap: %v", err)
	}

	noSender := *resp
	noSender.Bitmap = append([]byte(nil), resp.Bitmap...)
	noSender.Bitmap[root/8] &^= 1 << (root % 8)
	if err := v.Check(req, &noSender); err != swarm.ErrSwarmBitmap {
		t.Fatalf("senderless bitmap: %v", err)
	}
}

// TestSwarmOwnOnlyProbe: the bisection leaf probe answers with exactly
// the node's own contribution.
func TestSwarmOwnOnlyProbe(t *testing.T) {
	fs := newFleet(t, fleetConfig(15, 2))
	v := fs.V
	req, resp := runRound(t, fs)
	if err := v.Check(req, resp); err != nil {
		t.Fatal(err)
	}
	root, _ := v.Topology().Root()
	kids := v.Topology().Children(root, nil)
	probe := v.NewRequest(kids[1], true)
	presp, err := fs.Query(probe)
	if err != nil || presp == nil {
		t.Fatalf("probe failed: %v %v", presp, err)
	}
	if err := v.Check(probe, presp); err != nil {
		t.Fatalf("own-only probe rejected: %v", err)
	}
	if presp.Depth != 0 {
		t.Fatalf("own-only depth = %d, want 0", presp.Depth)
	}
	// An own-only response claiming extra members is structurally bogus.
	bloated := *presp
	bloated.Bitmap = append([]byte(nil), presp.Bitmap...)
	protocol.SetSwarmBit(bloated.Bitmap, root)
	if err := v.Check(probe, &bloated); err != swarm.ErrSwarmBitmap {
		t.Fatalf("bloated own-only bitmap: %v", err)
	}
}

// TestSwarmAbsentMemberLocalized: an offline interior member surfaces as
// ErrSwarmMissing, bisection names it (and its stranded subtree), and
// after Remove the rebuilt tree verifies clean.
func TestSwarmAbsentMemberLocalized(t *testing.T) {
	fs := newFleet(t, fleetConfig(15, 2))
	v := fs.V
	req, resp := runRound(t, fs)
	if err := v.Check(req, resp); err != nil {
		t.Fatal(err)
	}
	root, _ := v.Topology().Root()
	target := v.Topology().Children(root, nil)[0]
	fs.Absent[target] = true

	req, resp = runRound(t, fs)
	if err := v.Check(req, resp); err != swarm.ErrSwarmMissing {
		t.Fatalf("absent member verdict: %v", err)
	}
	missing := v.AppendMissing(root, resp, nil)
	if len(missing) != 7 { // target's complete subtree in a 15/2 tree
		t.Fatalf("missing = %v, want the 7-member subtree", missing)
	}

	findings := v.Localize(root, fs.Query)
	found := false
	for _, f := range findings {
		if f.Member == target && f.Cause == swarm.CauseAbsent {
			found = true
		}
		if f.Cause != swarm.CauseAbsent {
			t.Fatalf("unexpected cause %v for member %d", f.Cause, f.Member)
		}
	}
	if !found {
		t.Fatalf("target %d not localized: %v", target, findings)
	}

	// Member-loss rebuild: survivors re-parent deterministically and the
	// next round, routed along the verifier's rebuilt tree, verifies
	// without the lost member.
	v.Remove(target)
	req, resp = runRound(t, fs)
	if err := v.Check(req, resp); err != nil {
		t.Fatalf("rebuilt tree rejected: %v", err)
	}
}

// TestSwarmColluderLocalized: a subtree root forging its children's
// evidence breaks the aggregate and bisection pins the forgery on the
// colluder — its own tag verifies, every child subtree verifies in
// isolation, only its fold is wrong.
func TestSwarmColluderLocalized(t *testing.T) {
	fs := newFleet(t, fleetConfig(15, 2))
	v := fs.V
	req, resp := runRound(t, fs)
	if err := v.Check(req, resp); err != nil {
		t.Fatal(err)
	}
	root, _ := v.Topology().Root()
	target := v.Topology().Children(root, nil)[0]
	fs.ForgeChildren[target] = true

	req, resp = runRound(t, fs)
	if err := v.Check(req, resp); err != swarm.ErrSwarmMismatch {
		t.Fatalf("colluder verdict: %v", err)
	}
	findings := v.Localize(root, fs.Query)
	if len(findings) != 1 || findings[0].Member != target || findings[0].Cause != swarm.CauseFoldForgery {
		t.Fatalf("colluder findings = %v, want fold-forgery at %d", findings, target)
	}
}

// TestSwarmDirtyMemberLocalized: a member whose attested memory changed
// re-measures (write-monitor contract), its deviating digest breaks the
// aggregate, and bisection names it with CauseMismatch. A clean member
// is never flagged.
func TestSwarmDirtyMemberLocalized(t *testing.T) {
	fs := newFleet(t, fleetConfig(15, 2))
	v := fs.V
	req, resp := runRound(t, fs)
	if err := v.Check(req, resp); err != nil {
		t.Fatal(err)
	}
	target := 11 // a leaf
	corrupt(t, fs, target, 100)

	req, resp = runRound(t, fs)
	if err := v.Check(req, resp); err != swarm.ErrSwarmMismatch {
		t.Fatalf("dirty member verdict: %v", err)
	}
	root, _ := v.Topology().Root()
	findings := v.Localize(root, fs.Query)
	if len(findings) != 1 || findings[0].Member != target || findings[0].Cause != swarm.CauseMismatch {
		t.Fatalf("dirty findings = %v, want mismatch at %d", findings, target)
	}
}

// TestSwarmLiarEpochDesync: rearming the monitor from application code
// (possible only without the EA-MPU's monitor rule) moves the member's
// epoch past the verifier's record, and the own tag's epoch binding
// breaks the aggregate although the memory still matches golden. After
// the resync contract (observe the new epoch) rounds verify again.
func TestSwarmLiarEpochDesync(t *testing.T) {
	cfg := fleetConfig(7, 2)
	cfg.Scenario.Protection.Monitor = false
	fs := newFleet(t, cfg)
	v := fs.V
	req, resp := runRound(t, fs)
	if err := v.Check(req, resp); err != nil {
		t.Fatal(err)
	}
	target := 5
	dev := fs.F.Members[target].Dev
	if f := dev.M.Bus.Store32(mcu.FlashRegion.Start, mcu.MonCtrlAddr, mcu.MonRearm); f != nil {
		t.Fatalf("application rearm blocked: %v", f)
	}

	req, resp = runRound(t, fs)
	if err := v.Check(req, resp); err != swarm.ErrSwarmMismatch {
		t.Fatalf("liar verdict: %v", err)
	}
	root, _ := v.Topology().Root()
	findings := v.Localize(root, fs.Query)
	if len(findings) != 1 || findings[0].Member != target || findings[0].Cause != swarm.CauseMismatch {
		t.Fatalf("liar findings = %v, want mismatch at %d", findings, target)
	}

	// Resync: a direct round tells the verifier the member's current
	// epoch; with the record updated the aggregate verifies again.
	v.SetEpoch(target, dev.A.Mon.Epoch())
	req, resp = runRound(t, fs)
	if err := v.Check(req, resp); err != nil {
		t.Fatalf("post-resync round rejected: %v", err)
	}
}

// TestSwarmBisectionCheaperThanSweep: localizing one offender must not
// cost a full-fleet sweep — the probe count stays under n for a
// single-offender tree of any useful size.
func TestSwarmBisectionCheaperThanSweep(t *testing.T) {
	const n = 63
	fs := newFleet(t, fleetConfig(n, 2))
	v := fs.V
	req, resp := runRound(t, fs)
	if err := v.Check(req, resp); err != nil {
		t.Fatal(err)
	}
	target := n - 1
	corrupt(t, fs, target, 0)
	req, resp = runRound(t, fs)
	if err := v.Check(req, resp); err != swarm.ErrSwarmMismatch {
		t.Fatal(err)
	}
	before := v.Stats.Bisections
	root, _ := v.Topology().Root()
	findings := v.Localize(root, fs.Query)
	probes := v.Stats.Bisections - before
	if len(findings) != 1 || findings[0].Member != target {
		t.Fatalf("findings = %v", findings)
	}
	if probes >= n {
		t.Fatalf("bisection used %d probes for one offender in an n=%d tree", probes, n)
	}
	t.Logf("bisection: %d probes to localize 1 offender among %d members", probes, n)
}

// TestSwarmStatsAccounting: the verifier's counters track outcomes.
func TestSwarmStatsAccounting(t *testing.T) {
	fs := newFleet(t, fleetConfig(7, 2))
	v := fs.V
	req, resp := runRound(t, fs)
	if err := v.Check(req, resp); err != nil {
		t.Fatal(err)
	}
	if v.Stats.Rounds != 1 || v.Stats.Accepted != 1 {
		t.Fatalf("stats after clean round: %+v", v.Stats)
	}
	fs.Absent[5] = true
	req, resp = runRound(t, fs)
	if err := v.Check(req, resp); err != swarm.ErrSwarmMissing {
		t.Fatal(err)
	}
	if v.Stats.Missing != 1 {
		t.Fatalf("missing not counted: %+v", v.Stats)
	}
}
