package swarm

import (
	"fmt"
	"time"

	"proverattest/internal/protocol"
)

// The direct-vs-swarm crossover: at what fleet size does aggregate
// attestation beat N direct 1:1 rounds on the verifier? Messages are
// counted exactly; verifier-side compute is measured wall-clock over the
// real primitives, because the asymptotics hide a constant — the swarm
// check replaces N golden-image MACs (each over the whole measured
// region) with N small fixed-size MACs over memoized digests, so compute
// crosses over long before the message count does on large images.

// CrossoverPoint is one fleet size in the sweep.
type CrossoverPoint struct {
	N     int `json:"n"`
	Depth int `json:"tree_depth"`

	// Verifier-side frames for one full-fleet round.
	DirectVerifierMsgs int `json:"direct_verifier_msgs"` // 2N
	SwarmVerifierMsgs  int `json:"swarm_verifier_msgs"`  // 2
	// Frames crossing tree edges (the fabric pays these, not the
	// verifier's uplink).
	SwarmTreeMsgs int `json:"swarm_tree_msgs"`

	// Measured verifier-side compute per full-fleet round.
	DirectVerifyUS float64 `json:"direct_verify_us"`
	SwarmVerifyUS  float64 `json:"swarm_verify_us"`

	MsgReduction float64 `json:"msg_reduction"` // direct / swarm verifier msgs
}

// CrossoverReport is the sweep outcome.
type CrossoverReport struct {
	Fanout  int              `json:"fanout"`
	MemSize int              `json:"mem_size"`
	Points  []CrossoverPoint `json:"points"`
	// ComputeCrossoverN is the smallest swept fleet size where the
	// swarm verifier round costs less CPU than N direct verifications
	// (the message crossover is N=1: 2 frames beat 2N at any N>1).
	ComputeCrossoverN int `json:"compute_crossover_n"`
}

// RunCrossover sweeps fleet sizes, measuring one full-fleet round per
// point both ways on real primitives.
func RunCrossover(sizes []int, fanout, memSize int) (CrossoverReport, error) {
	rep := CrossoverReport{Fanout: fanout, MemSize: memSize, ComputeCrossoverN: -1}
	master := []byte("swarm-crossover-master")
	golden := make([]byte, memSize)
	for i := range golden {
		golden[i] = byte(i * 131)
	}
	for _, n := range sizes {
		p := Params{Master: master, IDs: FleetIDs(n), Golden: golden, Fanout: fanout}
		mesh, err := NewMesh(p)
		if err != nil {
			return rep, err
		}
		v, err := NewVerifier(p)
		if err != nil {
			return rep, err
		}
		root, _ := mesh.Topo.Root()

		// Warm the mesh (first round full-measures every member) and the
		// verifier scratch.
		req := v.NewRequest(root, false)
		var resp protocol.SwarmResp
		if err := mesh.Collect(req, &resp); err != nil {
			return rep, err
		}
		if err := v.Check(req, &resp); err != nil {
			return rep, fmt.Errorf("swarm: crossover warm round n=%d: %w", n, err)
		}

		pt := CrossoverPoint{
			N:                  n,
			Depth:              mesh.Topo.Height(),
			DirectVerifierMsgs: 2 * n,
			SwarmVerifierMsgs:  2,
		}

		// Swarm: steady-state rounds over the fabric, timing only the
		// verifier's share (NewRequest + Check) — the fabric's fold time
		// is prover energy, not verifier load.
		const iters = 16
		mesh.TreeMessages = 0
		verifierOnly := time.Duration(0)
		for it := 0; it < iters; it++ {
			t0 := time.Now()
			req := v.NewRequest(root, false)
			reqDone := time.Since(t0)
			if err := mesh.Collect(req, &resp); err != nil {
				return rep, err
			}
			t1 := time.Now()
			if err := v.Check(req, &resp); err != nil {
				return rep, fmt.Errorf("swarm: crossover round n=%d: %w", n, err)
			}
			verifierOnly += reqDone + time.Since(t1)
		}
		pt.SwarmVerifyUS = float64(verifierOnly.Microseconds()) / iters
		pt.SwarmTreeMsgs = int(mesh.TreeMessages) / iters

		// Direct baseline: per device, the verifier signs one request
		// header and recomputes the golden-image response MAC — the
		// 1:1 protocol's verifier work, N times per fleet round. The
		// image MAC cannot be memoized across devices or rounds: it is
		// keyed per device and bound to the fresh request.
		var attReq protocol.AttReq
		reqHdr := attReq.AppendSignedBytes(nil)
		start := time.Now()
		for it := 0; it < iters; it++ {
			for d := 0; d < n; d++ {
				mac := v.macs[d]
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
	return rep, nil
}
