package core

import (
	"testing"
	"time"

	"proverattest/internal/protocol"
	"proverattest/internal/swarm"
)

// TestCrossover: the message story is exact (2 verifier frames vs 2N)
// and the measured verifier compute must cross over within the sweep —
// the aggregate check does N small fixed-size MACs where the direct
// baseline does N golden-image MACs.
func TestCrossover(t *testing.T) {
	rep := runCrossover(t, []int{2, 4, 16, 64}, 2)
	if len(rep.Points) != 4 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	for _, pt := range rep.Points {
		t.Logf("n=%3d depth=%d verifier msgs %d→%d (%.0fx) verify %7.1fµs→%7.1fµs tree msgs %d",
			pt.N, pt.Depth, pt.DirectVerifierMsgs, pt.SwarmVerifierMsgs, pt.MsgReduction,
			pt.DirectVerifyUS, pt.SwarmVerifyUS, pt.SwarmTreeMsgs)
		if pt.SwarmVerifierMsgs != 2 || pt.DirectVerifierMsgs != 2*pt.N {
			t.Fatalf("message counts wrong at n=%d: %+v", pt.N, pt)
		}
		if pt.SwarmTreeMsgs != 2*(pt.N-1) {
			t.Fatalf("tree messages = %d at n=%d, want %d", pt.SwarmTreeMsgs, pt.N, 2*(pt.N-1))
		}
	}
	if rep.ComputeCrossoverN < 0 {
		t.Fatalf("verifier compute never crossed over: %+v", rep.Points)
	}
	last := rep.Points[len(rep.Points)-1]
	if last.MsgReduction < 10 {
		t.Fatalf("message reduction at n=%d is %.1fx, want ≥10x", last.N, last.MsgReduction)
	}
}

// The direct-vs-swarm crossover: at what fleet size does aggregate
// attestation beat N direct 1:1 rounds on the verifier? Messages are
// counted exactly; verifier-side compute is measured wall-clock over the
// real primitives, because the asymptotics hide a constant — the swarm
// check replaces N golden-image MACs (each over the whole measured
// region) with N small fixed-size MACs over memoized digests, so compute
// crosses over long before the message count does on large images.

// crossoverPoint is one fleet size in the sweep.
type crossoverPoint struct {
	N     int
	Depth int

	// Verifier-side frames for one full-fleet round.
	DirectVerifierMsgs int // 2N
	SwarmVerifierMsgs  int // 2
	// Frames crossing tree edges (the fabric pays these, not the
	// verifier's uplink).
	SwarmTreeMsgs int

	// Measured verifier-side compute per full-fleet round.
	DirectVerifyUS float64
	SwarmVerifyUS  float64

	MsgReduction float64 // direct / swarm verifier msgs
}

// crossoverReport is the sweep outcome.
type crossoverReport struct {
	Points []crossoverPoint
	// ComputeCrossoverN is the smallest swept fleet size where the
	// swarm verifier round costs less CPU than N direct verifications
	// (the message crossover is N=1: 2 frames beat 2N at any N>1).
	ComputeCrossoverN int
}

// runCrossover sweeps fleet sizes, measuring one full-fleet round per
// point both ways: the swarm side over a FleetSwarm of real anchors
// holding the 512 KiB golden image, the direct side on the same keys and
// image.
func runCrossover(t *testing.T, sizes []int, fanout int) crossoverReport {
	rep := crossoverReport{ComputeCrossoverN: -1}
	golden := GoldenRAMPattern()
	for _, n := range sizes {
		fs := newTestFleetSwarm(t, n, fanout)
		v := fs.V
		root, _ := v.Topology().Root()

		// Warm the fleet (the first round full-measures every member) and
		// the verifier scratch.
		if _, err := fs.CheckedRound(); err != nil {
			t.Fatalf("crossover warm round n=%d: %v", n, err)
		}

		pt := crossoverPoint{
			N:                  n,
			Depth:              v.Topology().Height(),
			DirectVerifierMsgs: 2 * n,
		}

		// Swarm: steady-state rounds over the fleet, timing only the
		// verifier's share (NewRequest + Check) — the fleet's fold time
		// is prover energy, not verifier load.
		const iters = 4
		tree0, verifier0 := fs.TreeMessages, fs.VerifierMessages
		verifierOnly := time.Duration(0)
		for it := 0; it < iters; it++ {
			t0 := time.Now()
			req := v.NewRequest(root, false)
			reqDone := time.Since(t0)
			resp, err := fs.Query(req)
			if err != nil || resp == nil {
				t.Fatalf("crossover round n=%d: no answer (%v)", n, err)
			}
			t1 := time.Now()
			if err := v.Check(req, resp); err != nil {
				t.Fatalf("crossover round n=%d: %v", n, err)
			}
			verifierOnly += reqDone + time.Since(t1)
		}
		pt.SwarmVerifyUS = float64(verifierOnly.Microseconds()) / iters
		pt.SwarmTreeMsgs = int(fs.TreeMessages-tree0) / iters
		pt.SwarmVerifierMsgs = int(fs.VerifierMessages-verifier0) / iters

		// Direct baseline: per device, the verifier signs one request
		// header and recomputes the golden-image response MAC — the
		// 1:1 protocol's verifier work, N times per fleet round. The
		// image MAC cannot be memoized across devices or rounds: it is
		// keyed per device and bound to the fresh request.
		macs := make([]*protocol.MAC, n)
		for d, id := range swarm.FleetIDs(n) {
			key := protocol.DeriveDeviceKey(FleetMasterSecret, id)
			macs[d] = protocol.NewMAC(key[:])
		}
		var attReq protocol.AttReq
		reqHdr := attReq.AppendSignedBytes(nil)
		start := time.Now()
		for it := 0; it < iters; it++ {
			for _, mac := range macs {
				mac.Tag(reqHdr)              // request tag
				mac.Measure(&attReq, golden) // expected response MAC over the image
			}
		}
		pt.DirectVerifyUS = float64(time.Since(start).Microseconds()) / iters

		pt.MsgReduction = float64(pt.DirectVerifierMsgs) / float64(pt.SwarmVerifierMsgs)
		if rep.ComputeCrossoverN < 0 && pt.SwarmVerifyUS < pt.DirectVerifyUS {
			rep.ComputeCrossoverN = n
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep
}
