// Socket-level DoS flood: the paper's §3.1 asymmetry over real TCP.
//
// The example runs an honest verifier daemon (internal/server), a prover
// agent (internal/agent) and, on the channel between them, the verifier
// impersonator (internal/adversary.Relay), all on localhost TCP ports.
// The relay forwards the session both ways. Behind the daemon's first
// authenticated request — which the agent answers with a full memory
// measurement — it floods the agent with forged, replayed and malformed
// frames.
//
// The agent's trust-anchor gate runs on every inbound frame; the example
// asserts the paper's asymmetry end-to-end and exits non-zero if it does
// not hold: every flood frame is rejected at the gate, and the prover's
// MAC-work count (memory measurements) equals exactly the number of
// honest requests the daemon issued.
//
//	go run ./examples/netflood
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"proverattest/internal/adversary"
	"proverattest/internal/agent"
	"proverattest/internal/core"
	"proverattest/internal/obs"
	"proverattest/internal/protocol"
	"proverattest/internal/server"
	"proverattest/internal/transport"
)

// scrapeMetrics pulls one sample from the daemon's exposition endpoint.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.ParseText(resp.Body)
}

// floodTotal is how many adversarial frames the relay injects
// (forge/replay/malformed cycle).
const floodTotal = 120

// relay accepts one agent connection on ln, dials the daemon at addr and
// runs the impersonator between them, reporting how many frames it
// injected once the session ends.
func relay(ln net.Listener, addr string, injected chan<- int) {
	agentNC, err := ln.Accept()
	ln.Close()
	if err != nil {
		log.Fatalf("netflood: relay: %v", err)
	}
	daemonNC, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatalf("netflood: relay: %v", err)
	}
	injected <- adversary.Relay(transport.NewConn(agentNC, transport.Options{}),
		transport.NewConn(daemonNC, transport.Options{}), floodTotal)
}

func main() {
	log.SetFlags(0)
	master := []byte("netflood-example-master")

	reg := obs.New()
	srv, err := server.New(server.Config{
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: master,
		Golden:       core.GoldenRAMPattern(),
		// The session's first request goes out at connect; the next tick
		// never comes during the run, so that one is the honest head.
		AttestEvery: time.Hour,
		Metrics:     reg,
		// A single-tier policy, spelled out: every connection rides the
		// default admission tier, exactly as it would with no policy at
		// all. The example asserts that accounting below — the tier admits
		// every frame and limits none, so the tier layer is invisible to a
		// single-class deployment.
		Tiers: &server.TierPolicy{Tiers: []server.TierSpec{{Name: "default"}}},
	})
	if err != nil {
		log.Fatalf("netflood: %v", err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("netflood: %v", err)
	}
	go srv.Serve(ln) //nolint:errcheck

	// Exposition endpoint for the daemon's live counters: the example
	// scrapes it mid-flood like an operator's Prometheus would, and the
	// summary reports the asymmetry read from that scrape.
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("netflood: %v", err)
	}
	go http.Serve(mln, obs.Handler(reg)) //nolint:errcheck
	metricsURL := "http://" + mln.Addr().String() + "/metrics"
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("netflood: %v", err)
	}
	injected := make(chan int, 1)
	go relay(rln, ln.Addr().String(), injected)
	fmt.Printf("attestd on %s, relay impersonator on %s: the first honest request, then %d adversarial frames\n\n",
		ln.Addr(), rln.Addr(), floodTotal)

	a, err := agent.New(agent.Config{
		DeviceID:     "flooded-sensor",
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: master,
		StatsEvery:   50 * time.Millisecond,
	})
	if err != nil {
		log.Fatalf("netflood: %v", err)
	}
	nc, err := net.Dial("tcp", rln.Addr().String())
	if err != nil {
		log.Fatalf("netflood: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Serve(ctx, nc) //nolint:errcheck

	// Wait until the agent has seen (and reported) every frame, scraping
	// the daemon's /metrics on the way — a mid-flood sample of the live
	// counters, exactly what an operator's dashboard would poll.
	deadline := time.Now().Add(30 * time.Second)
	var midFlood map[string]float64
	for srv.AgentStats().Received < 1+floodTotal {
		if time.Now().After(deadline) {
			log.Fatalf("netflood: timed out: agent reported %d/%d frames",
				srv.AgentStats().Received, 1+floodTotal)
		}
		if s, err := scrapeMetrics(metricsURL); err == nil {
			midFlood = s
		}
		time.Sleep(20 * time.Millisecond)
	}

	// One final scrape after the flood settled: the numbers asserted below
	// must also be visible through the exposition endpoint.
	final, err := scrapeMetrics(metricsURL)
	if err != nil {
		log.Fatalf("netflood: final metrics scrape: %v", err)
	}
	if midFlood == nil {
		midFlood = final
	}

	st := srv.AgentStats()
	c := srv.Counters()
	fmt.Printf("daemon:  %v\n", c)
	fmt.Printf("prover:  received=%d measured=%d gate-rejected=%d (auth=%d fresh=%d malformed=%d)\n\n",
		st.Received, st.Measurements, st.GateRejected(),
		st.AuthRejected, st.FreshnessRejected, st.Malformed)

	// The asymmetry, asserted: rejected requests cost no attestation MAC
	// work — MAC-work count equals the honest head (the requests the
	// daemon issued) exactly, and every flood frame died at the gate.
	honestHead := c.RequestsIssued
	switch {
	case honestHead != 1:
		log.Fatalf("netflood: FAIL: daemon issued %d requests, want the session's first only", honestHead)
	case st.Measurements != honestHead:
		log.Fatalf("netflood: FAIL: %d measurements, want %d — flood frames bought MAC work",
			st.Measurements, honestHead)
	case st.GateRejected() != floodTotal:
		log.Fatalf("netflood: FAIL: %d gate rejections, want %d", st.GateRejected(), floodTotal)
	case st.AuthRejected != floodTotal/3 || st.FreshnessRejected != floodTotal/3 || st.Malformed != floodTotal/3:
		log.Fatalf("netflood: FAIL: cause split auth %d / fresh %d / malformed %d, want %d each",
			st.AuthRejected, st.FreshnessRejected, st.Malformed, floodTotal/3)
	case c.ResponsesAccepted != honestHead:
		log.Fatalf("netflood: FAIL: daemon accepted %d responses, want %d", c.ResponsesAccepted, honestHead)
	case final["attestd_responses_accepted_total"] != float64(honestHead):
		log.Fatalf("netflood: FAIL: exposition reports %v accepted responses, want %d",
			final["attestd_responses_accepted_total"], honestHead)
	case final["attestd_fleet_measurements"] != float64(honestHead):
		log.Fatalf("netflood: FAIL: exposition reports %v fleet measurements, want %d",
			final["attestd_fleet_measurements"], honestHead)
	}

	// The admission-tier accounting for a single-tier daemon: everything
	// the prover sent to the daemon was admitted by the default tier,
	// nothing was tier-limited (the relay floods the prover; the prover's
	// replies are the only daemon-inbound frames).
	tiers := srv.AdminTiers()
	if len(tiers) != 1 || tiers[0].Name != "default" || !tiers[0].Default {
		log.Fatalf("netflood: FAIL: tier status %+v, want the single default tier", tiers)
	}
	if tiers[0].Admitted == 0 || tiers[0].Limited != 0 {
		log.Fatalf("netflood: FAIL: default tier admitted=%d limited=%d, want admitted>0 limited=0",
			tiers[0].Admitted, tiers[0].Limited)
	}
	if got := final[`attestd_tier_admitted_total{tier="default"}`]; got != float64(tiers[0].Admitted) {
		log.Fatalf("netflood: FAIL: exposition reports %v tier-admitted frames, daemon says %d",
			got, tiers[0].Admitted)
	}
	if c.TierLimited != 0 {
		log.Fatalf("netflood: FAIL: %d tier-limited frames on a single uncapped tier", c.TierLimited)
	}
	fmt.Printf(`PASS: the gate held over the socket.
  - the daemon's one honest request cost a full ≈754 ms (simulated) memory
    measurement;
  - %d flood frames were rejected by parse/auth/freshness checks alone and
    bought the attacker zero attestation work and zero reply bytes.
`, floodTotal)

	// Machine-readable summary for scripts that scrape the example's
	// output.
	gateCount := final["attestd_gate_seconds_count"]
	var liveGateNs, liveAttestNs float64
	if gateCount > 0 {
		liveGateNs = final["attestd_gate_seconds_sum"] * 1e9 / gateCount
	}
	if n := final["attestd_attest_seconds_count"]; n > 0 {
		liveAttestNs = final["attestd_attest_seconds_sum"] * 1e9 / n
	}
	summary, err := json.Marshal(struct {
		Bench             string `json:"bench"`
		Freshness         string `json:"freshness"`
		Auth              string `json:"auth"`
		Transport         string `json:"transport"`
		FullAttestRounds  uint64 `json:"full_attest_rounds"`
		GateRejectFrames  int    `json:"gate_reject_frames"`
		AgentMeasurements uint64 `json:"agent_measurements"`
		AgentGateRejected uint64 `json:"agent_gate_rejected"`
		DaemonAccepted    uint64 `json:"daemon_responses_accepted"`

		// Read from the /metrics endpoint, not process memory: the same
		// numbers an external Prometheus would see.
		MidFloodFleetReceived float64 `json:"mid_flood_fleet_received"`
		LiveGateNsMean        float64 `json:"live_gate_ns_mean"`
		LiveAttestNsMean      float64 `json:"live_attest_ns_mean"`
		LiveTransportFramesIn float64 `json:"live_transport_frames_in"`
	}{
		Bench:             "netflood",
		Freshness:         protocol.FreshCounter.String(),
		Auth:              protocol.AuthHMACSHA1.String(),
		Transport:         "tcp " + ln.Addr().String(),
		FullAttestRounds:  honestHead,
		GateRejectFrames:  floodTotal,
		AgentMeasurements: st.Measurements,
		AgentGateRejected: st.GateRejected(),
		DaemonAccepted:    c.ResponsesAccepted,

		MidFloodFleetReceived: midFlood["attestd_fleet_received"],
		LiveGateNsMean:        liveGateNs,
		LiveAttestNsMean:      liveAttestNs,
		LiveTransportFramesIn: final[`transport_frames_total{dir="in"}`],
	})
	if err != nil {
		log.Fatalf("netflood: %v", err)
	}
	fmt.Println(string(summary))

	// Teardown: the agent hangs up, which ends the relay's session, and
	// the daemon drains — stops accepting and issuing, waits for
	// outstanding verdicts — rather than cutting sockets. That is the path
	// the admin API's POST /admin/drain takes, and it must leave zero
	// inflight behind.
	cancel()
	if n := <-injected; n != floodTotal {
		log.Fatalf("netflood: FAIL: relay injected %d frames, want %d", n, floodTotal)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatalf("netflood: drain: %v", err)
	}
	if n := srv.Inflight(); n != 0 {
		log.Fatalf("netflood: %d inflight after drain, want 0", n)
	}
}
