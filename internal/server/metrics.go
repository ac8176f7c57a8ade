package server

import (
	"proverattest/internal/obs"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// rejectCause is why the serving gate refused a frame. handleFrame and
// the handlers it dispatches to return one; causeNone is a frame the gate
// admitted and its handler accepted. The causes index the reject series
// (serverMetrics.rejects) and a serve loop's tally (gateTally).
type rejectCause uint8

const (
	causeNone              rejectCause = iota
	causeRateLimited                   // over the per-connection token budget
	causeTierLimited                   // over a tier-wide admission budget
	causeUnknownKind                   // no recognised frame kind
	causeMalformedResponse             // classified as a response, failed strict decode
	causeBadMeasurement                // decoded fine, measurement/tag mismatch
	causeUnsolicited                   // response answering no outstanding nonce
	causeMalformedStats                // classified as stats, failed strict decode
	causeCommandRejected               // service-command response rejected
	causeFastMismatch                  // fast response failed the digest/epoch record check
	causeMalformedSwarm                // classified as a swarm response, failed strict decode
	causeDaemonRate                    // over the daemon-wide budget (MaxRatePerSec)
	numCauses
)

// causeLabels are the cause label values of attestd_rejects_total.
var causeLabels = [numCauses]string{
	causeRateLimited:       "rate_limited",
	causeTierLimited:       "tier_limited",
	causeUnknownKind:       "unknown_kind",
	causeMalformedResponse: "malformed_response",
	causeBadMeasurement:    "bad_measurement",
	causeUnsolicited:       "unsolicited",
	causeMalformedStats:    "malformed_stats",
	causeCommandRejected:   "command_rejected",
	causeFastMismatch:      "fast_mismatch",
	causeMalformedSwarm:    "malformed_swarm",
	causeDaemonRate:        "daemon_rate",
}

// serverMetrics is the daemon's observability surface: every counter the
// serving path touches, as obs instruments registered once at
// construction. The hot-path contract is inherited from internal/obs —
// recording allocates nothing, and the per-frame counts are tallied in
// plain integers by each serve loop and published when its read buffer
// runs dry (gateTally) — so the gate's reject paths stay as cheap
// instrumented as they were bare (pinned by the alloc tests in
// alloc_test.go).
//
// Reject causes are deliberately distinct series of one family
// (attestd_rejects_total{cause=...}): the paper's asymmetry argument is
// per-cause — a malformed frame must die at the parser, an unsolicited
// response at the pending-map miss — and conflated counters cannot show
// where a flood is actually dying.
type serverMetrics struct {
	connsAccepted *obs.Counter

	// Connection rejections by cause (attestd_conns_rejected_total).
	connRejIO         *obs.Counter // first frame never arrived / read error
	connRejHello      *obs.Counter // hello failed to parse
	connRejHelloSlow  *obs.Counter // first frame missed the hello deadline (slow-loris)
	connRejPolicy     *obs.Counter // hello declared a mismatched freshness/auth policy
	connRejCap        *obs.Counter // accept-side MaxConns refusal
	connRejDraining   *obs.Counter // refused because the daemon is draining
	connRejDeviceNew  *obs.Counter // per-device verifier construction failed
	connRejDeviceFull *obs.Counter // device table at MaxDevices, new identity refused

	// Evictions of established connections by cause
	// (attestd_evictions_total): the slow-loris defence, post-hello. A
	// peer that stops completing frames (read_stall) or stops draining
	// its socket (write_stall) loses the connection instead of parking a
	// goroutine and an fd forever.
	evictReadStall  *obs.Counter
	evictWriteStall *obs.Counter

	// acceptRetries counts transient listener failures survived by the
	// accept loop (fd pressure, injected faults) rather than fatal exits.
	acceptRetries *obs.Counter

	// draining is 1 from Shutdown's drain start until the daemon is fully
	// closed — the gauge a fleet dashboard watches during rollouts.
	draining *obs.Gauge

	framesIn *obs.Counter

	// Per-frame rejects by cause (attestd_rejects_total), indexed by
	// rejectCause; rejects[causeNone] is nil.
	rejects [numCauses]*obs.Counter

	requestsIssued    *obs.Counter
	inflightThrottled *obs.Counter
	issueDeferred     *obs.Counter // ticks held while the device's newest full request is unanswered
	requestsAbandoned *obs.Counter
	responsesAccepted *obs.Counter
	responsesFast     *obs.Counter // accepted responses that took the O(1) fast path

	statsReports *obs.Counter
	statsEpochs  *obs.Counter // device counter-reset (reboot) detections

	// Swarm aggregation over the gateway connection: full rounds driven
	// and bisection probes issued to localize a failed aggregate.
	swarmRounds     *obs.Counter
	swarmBisections *obs.Counter

	// Cluster mode: ownership routing and state-handoff outcomes.
	redirects       *obs.Counter // device hellos answered with the owner's address
	handoffsLive    *obs.Counter // devices adopted with exact state from the previous owner
	handoffsReplica *obs.Counter // devices adopted from a replicated snapshot (jumped)
	stateExports    *obs.Counter // device states handed off to a requesting peer
	peerConns       *obs.Counter // peer links accepted from other daemons

	// Persistence: journal-recovered devices adopted on reconnect, and the
	// latency of the fsyncs the durability policy forces.
	recoveredExact  *obs.Counter // adopted live-exact (fast-path arm preserved)
	recoveredJumped *obs.Counter // adopted via the restart freshness jump
	fsyncLat        *obs.Histogram

	// Admin control-plane actions (attestd_admin_actions_total): the
	// operator's mutations, so a dashboard can correlate a latency or
	// reject-rate change with the override that caused it.
	adminEvicts    *obs.Counter
	adminReattests *obs.Counter
	adminOverrides *obs.Counter
	adminDrains    *obs.Counter

	// gateLat times frames that die at the serving gate (observed by the
	// serve loop, see handleConnInner); attestLat times accepted
	// attestation rounds issue-to-accept. The mass separation between the
	// two histograms is the paper's asymmetry, live.
	gateLat   *obs.Histogram
	attestLat *obs.Histogram

	transport *transport.Metrics
}

const (
	rejectsHelp   = "Frames rejected by the daemon's serving gate, by cause."
	evictionsHelp = "Established connections evicted by the slow-loris defence, by cause."
	handoffsHelp  = "Device freshness states adopted from the cluster on reconnect, by kind (live = exact from the previous owner, replica = jumped from a replicated snapshot)."
	recoveredHelp = "Journal-recovered devices adopted on reconnect after a daemon restart, by kind (exact = streams continue precisely, jumped = FreshnessSlack forward jump)."

	adminActionsHelp = "Admin control-plane mutations applied, by action."
)

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	const connRejHelp = "Connections refused before any device state existed, by cause."
	m := &serverMetrics{
		connsAccepted: reg.Counter("attestd_conns_accepted_total", "Connections whose hello matched the provisioned policy."),

		connRejIO:         reg.Counter("attestd_conns_rejected_total", connRejHelp, obs.L("cause", "io")),
		connRejHello:      reg.Counter("attestd_conns_rejected_total", connRejHelp, obs.L("cause", "hello_malformed")),
		connRejHelloSlow:  reg.Counter("attestd_conns_rejected_total", connRejHelp, obs.L("cause", "hello_timeout")),
		connRejPolicy:     reg.Counter("attestd_conns_rejected_total", connRejHelp, obs.L("cause", "policy_mismatch")),
		connRejCap:        reg.Counter("attestd_conns_rejected_total", connRejHelp, obs.L("cause", "conn_cap")),
		connRejDraining:   reg.Counter("attestd_conns_rejected_total", connRejHelp, obs.L("cause", "draining")),
		connRejDeviceNew:  reg.Counter("attestd_conns_rejected_total", connRejHelp, obs.L("cause", "device_init")),
		connRejDeviceFull: reg.Counter("attestd_conns_rejected_total", connRejHelp, obs.L("cause", "device_table_full")),

		evictReadStall:  reg.Counter("attestd_evictions_total", evictionsHelp, obs.L("cause", "read_stall")),
		evictWriteStall: reg.Counter("attestd_evictions_total", evictionsHelp, obs.L("cause", "write_stall")),

		acceptRetries: reg.Counter("attestd_accept_retries_total", "Transient listener failures survived by the accept loop."),
		draining:      reg.Gauge("attestd_draining", "1 while Shutdown is draining inflight requests, 0 otherwise."),

		framesIn: reg.Counter("attestd_frames_total", "Frames read off sockets after the hello."),

		requestsIssued:    reg.Counter("attestd_requests_issued_total", "Honest attestation requests sent."),
		inflightThrottled: reg.Counter("attestd_inflight_throttled_total", "Issue ticks skipped at the global inflight cap."),
		issueDeferred:     reg.Counter("attestd_issue_deferred_total", "Issue ticks that sent nothing because the fast path is on and the device's newest full-measurement request is unanswered."),
		requestsAbandoned: reg.Counter("attestd_requests_abandoned_total", "Requests retired by timeout."),
		responsesAccepted: reg.Counter("attestd_responses_accepted_total", "Responses whose measurement matched the golden image."),
		responsesFast:     reg.Counter("attestd_responses_fast_total", "Accepted responses that took the O(1) fast path (clean write monitor, no memory MAC)."),

		swarmRounds:     reg.Counter("attestd_swarm_rounds_total", "Swarm aggregate-attestation rounds driven over the gateway connection."),
		swarmBisections: reg.Counter("attestd_swarm_bisections_total", "Bisection probes issued to localize failed swarm aggregates."),

		redirects:       reg.Counter("attestd_redirects_total", "Device hellos answered with the ring owner's address instead of a session."),
		handoffsLive:    reg.Counter("attestd_handoffs_total", handoffsHelp, obs.L("kind", "live")),
		handoffsReplica: reg.Counter("attestd_handoffs_total", handoffsHelp, obs.L("kind", "replica")),
		stateExports:    reg.Counter("attestd_state_exports_total", "Device states handed off to a requesting peer (move semantics)."),
		peerConns:       reg.Counter("attestd_peer_conns_total", "Peer links accepted from other cluster daemons."),

		statsReports: reg.Counter("attestd_stats_reports_total", "Agent gate-counter heartbeats received."),
		statsEpochs:  reg.Counter("attestd_stats_epochs_total", "Agent counter resets (reboots) detected and folded into the fleet high-water base."),

		recoveredExact:  reg.Counter("attestd_recovered_devices_total", recoveredHelp, obs.L("kind", "exact")),
		recoveredJumped: reg.Counter("attestd_recovered_devices_total", recoveredHelp, obs.L("kind", "jumped")),

		adminEvicts:    reg.Counter("attestd_admin_actions_total", adminActionsHelp, obs.L("action", "evict")),
		adminReattests: reg.Counter("attestd_admin_actions_total", adminActionsHelp, obs.L("action", "reattest")),
		adminOverrides: reg.Counter("attestd_admin_actions_total", adminActionsHelp, obs.L("action", "tier_override")),
		adminDrains:    reg.Counter("attestd_admin_actions_total", adminActionsHelp, obs.L("action", "drain")),

		gateLat:   reg.Histogram("attestd_gate_seconds", "Serve-loop time of frames that died at the serving gate, from the previous frame's end or the read's return after a wait.", nil),
		attestLat: reg.Histogram("attestd_attest_seconds", "Issue-to-accept round-trip of honest attestation requests.", nil),
		fsyncLat:  reg.Histogram("attestd_fsync_seconds", "Latency of journal fsyncs forced by the persistence durability policy.", nil),

		transport: transport.NewMetrics(reg),
	}
	for c := causeNone + 1; c < numCauses; c++ {
		m.rejects[c] = reg.Counter("attestd_rejects_total", rejectsHelp, obs.L("cause", causeLabels[c]))
	}
	return m
}

// registerGauges exposes the daemon state that already has an owner —
// inflight slots, device map sizes, fleet-aggregated agent counters — as
// exposition-time gauge funcs, so the hot path never mirrors them.
//
// The attestd_fleet_* series re-export the agents' own gate counters
// (aggregated by AgentStats, monotonic across device reboots). They are
// labelled by rejection cause where the prover's gate distinguishes one:
// that is the prover-side half of the asymmetry read-out.
func (s *Server) registerGauges(reg *obs.Registry) {
	reg.GaugeFunc("attestd_inflight", "Outstanding attestation requests.",
		func() float64 { return float64(s.Inflight()) })
	reg.GaugeFunc("attestd_devices", "Provers that have ever connected.",
		func() float64 { return float64(s.Devices()) })
	reg.GaugeFunc("attestd_devices_owned", "Devices in the table whose ring owner is this daemon (equals attestd_devices outside cluster mode).",
		func() float64 {
			if s.cl == nil {
				return float64(s.Devices())
			}
			n := 0
			s.store.Range(func(d *deviceState) bool {
				if s.cl.Owns(d.id) {
					n++
				}
				return true
			})
			return float64(n)
		})
	reg.GaugeFunc("attestd_open_conns", "Currently open connections.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.conns))
		})

	if ps := s.persist; ps != nil {
		// The journal's counters already live behind atomics in the Log;
		// gauge funcs re-export them at scrape time, nothing mirrored on
		// the write path. Monotone values as GaugeFuncs follows the
		// attestd_fleet_* precedent.
		reg.GaugeFunc("attestd_journal_appends_total", "Snapshot records appended to the persistence journal.",
			func() float64 { return float64(ps.Stats().Appends) })
		reg.GaugeFunc("attestd_journal_tombstones_total", "Tombstone records appended to the persistence journal (device departures).",
			func() float64 { return float64(ps.Stats().Tombstones) })
		reg.GaugeFunc("attestd_journal_bytes", "Bytes written to the live persistence journal generation.",
			func() float64 { return float64(ps.Stats().Bytes) })
		reg.GaugeFunc("attestd_journal_compactions_total", "Full-snapshot compactions completed.",
			func() float64 { return float64(ps.Stats().Compactions) })
		reg.GaugeFunc("attestd_journal_replay_skipped_total", "Corrupt journal records skipped during the last replay.",
			func() float64 { return float64(ps.Stats().ReplaySkipped) })
		reg.GaugeFunc("attestd_journal_fsyncs_total", "Explicit fsyncs issued on the persistence journal.",
			func() float64 { return float64(ps.Stats().Fsyncs) })
		reg.GaugeFunc("attestd_recovered_pending", "Journal-recovered devices still waiting for their first reconnect.",
			func() float64 { return float64(ps.RecoveredPending()) })
	}

	const fleetRejHelp = "Fleet-aggregated frames rejected at the provers' anchor gate, by cause (monotonic across reboots)."
	fleet := func(name, help string, pick func(*protocol.StatsReport) uint64, labels ...obs.Label) {
		reg.GaugeFunc(name, help, func() float64 {
			st := s.AgentStats()
			return float64(pick(&st))
		}, labels...)
	}
	fleet("attestd_fleet_received", "Fleet-aggregated request frames submitted to prover gates.",
		func(st *protocol.StatsReport) uint64 { return st.Received })
	fleet("attestd_fleet_measurements", "Fleet-aggregated full memory measurements (the expensive MAC work).",
		func(st *protocol.StatsReport) uint64 { return st.Measurements })
	fleet("attestd_fleet_fast_responses", "Fleet-aggregated O(1) fast-path responses (clean monitor, no memory MAC).",
		func(st *protocol.StatsReport) uint64 { return st.FastResponses })
	fleet("attestd_fleet_gate_rejected", fleetRejHelp,
		func(st *protocol.StatsReport) uint64 { return st.AuthRejected }, obs.L("cause", "auth"))
	fleet("attestd_fleet_gate_rejected", fleetRejHelp,
		func(st *protocol.StatsReport) uint64 { return st.FreshnessRejected }, obs.L("cause", "freshness"))
	fleet("attestd_fleet_gate_rejected", fleetRejHelp,
		func(st *protocol.StatsReport) uint64 { return st.Malformed }, obs.L("cause", "malformed"))
	fleet("attestd_fleet_faults", "Fleet-aggregated bus faults inside the anchor.",
		func(st *protocol.StatsReport) uint64 { return st.Faults })
	fleet("attestd_fleet_commands_executed", "Fleet-aggregated service commands that passed the gate and ran.",
		func(st *protocol.StatsReport) uint64 { return st.CommandsExecuted })
	fleet("attestd_fleet_active_cycles", "Fleet-aggregated MCU cycles spent (energy basis).",
		func(st *protocol.StatsReport) uint64 { return st.ActiveCycles })
	fleet("attestd_fleet_frames_in", "Fleet-aggregated frames the agents pulled off their sockets.",
		func(st *protocol.StatsReport) uint64 { return st.FramesIn })
}
