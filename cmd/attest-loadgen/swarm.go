package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"proverattest/internal/core"
	"proverattest/internal/protocol"
	"proverattest/internal/server"
	"proverattest/internal/swarm"
	"proverattest/internal/transport"
)

// Swarm mode (-swarm) benches collective attestation end-to-end: an
// in-process attestd provisioned as a swarm verifier, one real TCP
// connection to the spanning-tree root (the gateway — the only fleet
// member the daemon can reach), and an in-process swarm.Mesh standing in
// for the radio fabric below it. Every aggregate round crosses the
// socket as exactly two frames whatever the fleet size; a mid-run
// adversary drill (an epoch-desynced member) must be localized by
// bisection over the same socket and resynced without eviction.
//
// The summary folds in the crossover ladder (verifier messages and
// compute, swarm vs direct, up to N=256) and the full adversary matrix
// on the simulated fleet, and hard-gates on 100% detection+localization
// and on the measured message reduction.

type benchSwarmCell struct {
	Adversary    string `json:"adversary"`
	Target       int    `json:"target"`
	Detected     bool   `json:"detected"`
	Localized    bool   `json:"localized"`
	Recovered    bool   `json:"recovered"`
	BisectProbes uint64 `json:"bisect_probes"`
	Verdict      string `json:"verdict,omitempty"`
}

type benchSwarm struct {
	Bench     string `json:"bench"`
	Freshness string `json:"freshness"`
	Auth      string `json:"auth"`
	Transport string `json:"transport"`

	Devices     int     `json:"devices"`
	Fanout      int     `json:"fanout"`
	TreeDepth   int     `json:"tree_depth"`
	DurationSec float64 `json:"duration_sec"`

	// Live socket phase: aggregate rounds over the gateway connection.
	Rounds uint64 `json:"rounds"`
	// Accepted counts every aggregate check the verifier passed —
	// full rounds plus clean own-only probes during bisection/resync.
	Accepted     uint64  `json:"checks_accepted"`
	Bisections   uint64  `json:"bisection_probes"`
	RoundsPerSec float64 `json:"rounds_per_sec"`

	// Verifier-side message accounting: a direct deployment spends 2N
	// frames per full-fleet round; the swarm spends 2 plus amortized
	// bisection probes. NetMsgReduction is the measured ratio.
	DirectMsgsPerRound   int     `json:"direct_msgs_per_round"`
	SwarmMsgsPerRound    float64 `json:"swarm_msgs_per_round"`
	NetMsgReduction      float64 `json:"net_msg_reduction"`
	VerifierNsPerRound   int64   `json:"verifier_ns_per_round"`
	TreeMessagesPerRound float64 `json:"tree_msgs_per_round"`

	// Mid-run adversary drill on the live socket.
	DrillTarget     int    `json:"drill_target"`
	DrillLocalized  bool   `json:"drill_localized"`
	DrillResynced   bool   `json:"drill_resynced"`
	DrillBisections uint64 `json:"drill_bisections"`

	Crossover swarm.CrossoverReport `json:"crossover"`

	Matrix          []benchSwarmCell `json:"adversary_matrix"`
	MatrixDetected  int              `json:"matrix_detected"`
	MatrixLocalized int              `json:"matrix_localized"`
	MatrixCells     int              `json:"matrix_cells"`
}

type swarmRunOpts struct {
	devices         int
	fanout          int
	duration        time.Duration
	every           time.Duration
	master          string
	fresh           protocol.FreshnessKind
	auth            protocol.AuthKind
	out, variant    string
	minMsgReduction float64
}

// swarmGateway bridges the daemon's gateway connection to the in-process
// mesh: every SwarmReq that arrives (full rounds and bisection probes)
// is aggregated over the mesh and answered on the same socket.
type swarmGateway struct {
	mu   sync.Mutex
	mesh *swarm.Mesh
	tc   *transport.Conn
}

func (g *swarmGateway) run() {
	for {
		frame, err := g.tc.Recv()
		if err != nil {
			if transport.IsTimeout(err) {
				continue
			}
			return
		}
		if protocol.ClassifyFrame(frame) != protocol.FrameSwarmReq {
			continue
		}
		req, err := protocol.DecodeSwarmReq(frame)
		if err != nil {
			continue
		}
		g.mu.Lock()
		resp, err := g.mesh.Query(req)
		g.mu.Unlock()
		if err != nil || resp == nil {
			continue
		}
		if err := g.tc.Send(resp.Encode()); err != nil {
			return
		}
	}
}

func runSwarm(o swarmRunOpts) {
	ids := swarm.FleetIDs(o.devices)
	golden := core.GoldenRAMPattern()
	topo := core.NewTopology(o.devices, o.fanout, 0)
	root, ok := topo.Root()
	if !ok {
		log.Fatal("attest-loadgen: empty swarm topology")
	}

	srv, err := server.New(server.Config{
		Freshness:    o.fresh,
		Auth:         o.auth,
		MasterSecret: []byte(o.master),
		Golden:       golden,
		// The deployment attests collectively; park the 1:1 schedule.
		AttestEvery: time.Hour,
		Swarm: &server.SwarmConfig{
			IDs:     ids,
			Fanout:  o.fanout,
			Every:   o.every,
			Timeout: 5 * time.Second,
		},
	})
	if err != nil {
		log.Fatalf("attest-loadgen: %v", err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("attest-loadgen: %v", err)
	}
	go srv.Serve(ln) //nolint:errcheck
	target := ln.Addr().String()
	log.Printf("attest-loadgen: in-process attestd (swarm, %d devices, fanout %d) on %s",
		o.devices, o.fanout, target)

	mesh, err := swarm.NewMesh(swarm.Params{
		Master: []byte(o.master),
		IDs:    ids,
		Golden: golden,
		Fanout: o.fanout,
	})
	if err != nil {
		log.Fatalf("attest-loadgen: %v", err)
	}
	nc, err := net.Dial("tcp", target)
	if err != nil {
		log.Fatalf("attest-loadgen: dialing %s: %v", target, err)
	}
	gw := &swarmGateway{
		mesh: mesh,
		tc: transport.NewConn(nc, transport.Options{
			ReadTimeout:  250 * time.Millisecond,
			WriteTimeout: 10 * time.Second,
		}),
	}
	defer gw.tc.Close()
	hello := &protocol.Hello{Freshness: o.fresh, Auth: o.auth, DeviceID: ids[root]}
	if err := gw.tc.Send(hello.Encode()); err != nil {
		log.Fatalf("attest-loadgen: hello: %v", err)
	}
	go gw.run()

	// Phase 1: clean aggregate rounds for half the run.
	t0 := time.Now()
	time.Sleep(o.duration / 2)
	preDrill := srv.Counters()

	// Phase 2: adversary drill on the live socket. The deepest member's
	// write monitor fires (Taint), it re-measures under a fresh epoch,
	// and its own tag desyncs from the verifier's record: the daemon
	// must detect the broken aggregate, bisect down the tree on the same
	// socket, and resync the member instead of evicting it.
	drillTarget := topo.MemberAt(topo.Len() - 1)
	gw.mu.Lock()
	mesh.Nodes[drillTarget].Taint()
	gw.mu.Unlock()

	drillDeadline := time.Now().Add(o.duration/2 + 5*time.Second)
	var drillLocalized bool
	for time.Now().Before(drillDeadline) {
		for _, f := range srv.SwarmFindings() {
			if f.Member == drillTarget && f.Cause == swarm.CauseMismatch {
				drillLocalized = true
			}
		}
		if drillLocalized {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	postDrill := srv.SwarmStats()
	// Resynced = the member is still in the tree and rounds verify again.
	var drillResynced bool
	for time.Now().Before(drillDeadline) {
		if srv.SwarmStats().Accepted > postDrill.Accepted {
			drillResynced = srv.SwarmTopology().Len() == o.devices
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rest := o.duration - time.Since(t0); rest > 0 {
		time.Sleep(rest)
	}
	elapsed := time.Since(t0)
	c := srv.Counters()
	st := srv.SwarmStats()

	// Offline read-outs: the crossover ladder on real primitives and the
	// full adversary matrix on the simulated (energy-metered) fleet.
	log.Printf("attest-loadgen: running crossover ladder (up to N=256)")
	crossover, err := swarm.RunCrossover([]int{4, 16, 64, 256}, o.fanout, 16*1024)
	if err != nil {
		log.Fatalf("attest-loadgen: crossover: %v", err)
	}
	log.Printf("attest-loadgen: running adversary matrix (16 members)")
	cells, err := swarm.RunSwarmMatrix(16, 2)
	if err != nil {
		log.Fatalf("attest-loadgen: adversary matrix: %v", err)
	}

	res := benchSwarm{
		Bench:       "swarm",
		Freshness:   o.fresh.String(),
		Auth:        o.auth.String(),
		Transport:   "tcp " + target,
		Devices:     o.devices,
		Fanout:      o.fanout,
		TreeDepth:   topo.Height(),
		DurationSec: elapsed.Seconds(),

		Rounds:       c.SwarmRounds,
		Accepted:     st.Accepted,
		Bisections:   c.SwarmBisections,
		RoundsPerSec: float64(c.SwarmRounds) / elapsed.Seconds(),

		DirectMsgsPerRound: 2 * o.devices,

		DrillTarget:     drillTarget,
		DrillLocalized:  drillLocalized,
		DrillResynced:   drillResynced,
		DrillBisections: c.SwarmBisections - preDrill.SwarmBisections,

		Crossover:   crossover,
		MatrixCells: len(cells),
	}
	if c.SwarmRounds > 0 {
		res.SwarmMsgsPerRound = float64(2*c.SwarmRounds+c.SwarmBisections*2) / float64(c.SwarmRounds)
		res.NetMsgReduction = float64(res.DirectMsgsPerRound) / res.SwarmMsgsPerRound
		res.TreeMessagesPerRound = float64(mesh.TreeMessages) / float64(c.SwarmRounds)
	}
	for _, pt := range crossover.Points {
		if pt.N == o.devices {
			res.VerifierNsPerRound = int64(pt.SwarmVerifyUS * 1e3)
		}
	}
	for _, cell := range cells {
		res.Matrix = append(res.Matrix, benchSwarmCell{
			Adversary:    cell.Adversary.String(),
			Target:       cell.Target,
			Detected:     cell.Detected,
			Localized:    cell.Localized,
			Recovered:    cell.RecoveredClean,
			BisectProbes: cell.BisectProbes,
			Verdict:      cell.Verdict,
		})
		if cell.Adversary == swarm.SwarmHonestFleet {
			continue
		}
		if cell.Detected {
			res.MatrixDetected++
		}
		if cell.Localized {
			res.MatrixLocalized++
		}
	}

	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatalf("attest-loadgen: %v", err)
	}
	fmt.Println(string(buf))
	if o.out != "" {
		variant := o.variant
		if variant == "" {
			variant = "swarm"
		}
		if err := writeSummary(o.out, variant, buf); err != nil {
			log.Fatalf("attest-loadgen: %v", err)
		}
		log.Printf("attest-loadgen: wrote %s", o.out)
	}

	// Hard gates: the swarm claims are measured, not asserted.
	if res.Rounds == 0 || res.Accepted == 0 {
		log.Fatalf("attest-loadgen: no swarm rounds verified (rounds=%d accepted=%d) — gateway unreachable?",
			res.Rounds, res.Accepted)
	}
	if !res.DrillLocalized || !res.DrillResynced {
		log.Fatalf("attest-loadgen: live adversary drill failed (localized=%v resynced=%v)",
			res.DrillLocalized, res.DrillResynced)
	}
	adversaries := res.MatrixCells - 1 // honest cell carries no adversary
	if res.MatrixDetected != adversaries || res.MatrixLocalized != adversaries {
		log.Fatalf("attest-loadgen: adversary matrix below 100%%: detected %d/%d localized %d/%d",
			res.MatrixDetected, adversaries, res.MatrixLocalized, adversaries)
	}
	if o.minMsgReduction > 0 && res.NetMsgReduction < o.minMsgReduction {
		log.Fatalf("attest-loadgen: message reduction %.1fx below the %.0fx floor (%d direct vs %.1f swarm frames/round)",
			res.NetMsgReduction, o.minMsgReduction, res.DirectMsgsPerRound, res.SwarmMsgsPerRound)
	}
}
