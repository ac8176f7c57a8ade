package server

import (
	"context"
	"io"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"proverattest/internal/obs"
)

// parsePromText parses a Prometheus text exposition into a map keyed by
// the full series string (name plus label set, exactly as exposed) and
// fails the test on any line that does not parse.
func parsePromText(t *testing.T, body string) map[string]float64 {
	t.Helper()
	series := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("series %q has unparseable value %q: %v", key, valStr, err)
		}
		if _, dup := series[key]; dup {
			t.Fatalf("series %q exposed twice", key)
		}
		series[key] = val
	}
	return series
}

// TestMetricsSmoke is the `make metrics-smoke` acceptance check: an
// in-process attestd serving a real agent over TCP, scraped over HTTP,
// with every expected series family present and parseable. It covers the
// three layers the observability tentpole threads through: the daemon's
// own counters/histograms, the agent-reported fleet gauges, and the
// transport codec counters.
func TestMetricsSmoke(t *testing.T) {
	reg := obs.New()
	s := testServer(t, func(c *Config) {
		c.Metrics = reg
		c.AttestEvery = 25 * time.Millisecond
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck

	a := testAgent(t, "metrics-smoke-dev")
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Serve(ctx, nc) //nolint:errcheck

	waitFor(t, 15*time.Second, "an accepted measurement and a stats report", func() bool {
		c := s.Counters()
		return c.ResponsesAccepted >= 1 && c.StatsReports >= 1
	})

	scrape := httptest.NewServer(obs.Handler(s.Metrics()))
	defer scrape.Close()
	resp, err := scrape.Client().Get(scrape.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := parsePromText(t, string(raw))

	expected := []string{
		// Daemon counters.
		"attestd_conns_accepted_total",
		`attestd_conns_rejected_total{cause="policy_mismatch"}`,
		`attestd_conns_rejected_total{cause="conn_cap"}`,
		"attestd_frames_total",
		`attestd_rejects_total{cause="rate_limited"}`,
		`attestd_rejects_total{cause="unknown_kind"}`,
		`attestd_rejects_total{cause="malformed_response"}`,
		`attestd_rejects_total{cause="unsolicited"}`,
		`attestd_rejects_total{cause="malformed_stats"}`,
		"attestd_requests_issued_total",
		"attestd_responses_accepted_total",
		"attestd_stats_reports_total",
		"attestd_stats_epochs_total",
		// Failure-semantics counters (slow-loris, stalls, accept retries).
		`attestd_conns_rejected_total{cause="hello_timeout"}`,
		`attestd_conns_rejected_total{cause="draining"}`,
		`attestd_evictions_total{cause="read_stall"}`,
		`attestd_evictions_total{cause="write_stall"}`,
		"attestd_accept_retries_total",
		// Histograms (bucket/sum/count triplet spot checks).
		`attestd_gate_seconds_bucket{le="+Inf"}`,
		"attestd_gate_seconds_count",
		`attestd_attest_seconds_bucket{le="+Inf"}`,
		"attestd_attest_seconds_count",
		"attestd_attest_seconds_sum",
		// Daemon gauges.
		"attestd_inflight",
		"attestd_devices",
		"attestd_open_conns",
		"attestd_draining",
		// Fast-path and device-table series.
		"attestd_responses_fast_total",
		"attestd_issue_deferred_total",
		`attestd_rejects_total{cause="fast_mismatch"}`,
		`attestd_rejects_total{cause="malformed_swarm"}`,
		"attestd_swarm_rounds_total",
		"attestd_swarm_bisections_total",
		`attestd_conns_rejected_total{cause="device_table_full"}`,
		"attestd_fleet_fast_responses",
		// Cluster series (registered standalone too: the counters stay at
		// zero and attestd_devices_owned mirrors attestd_devices).
		"attestd_redirects_total",
		`attestd_handoffs_total{kind="live"}`,
		`attestd_handoffs_total{kind="replica"}`,
		"attestd_state_exports_total",
		"attestd_peer_conns_total",
		`attestd_rejects_total{cause="daemon_rate"}`,
		"attestd_devices_owned",
		// Admission-tier and admin control-plane series (registered even on
		// a single-tier daemon that never takes an admin action).
		`attestd_rejects_total{cause="tier_limited"}`,
		`attestd_tier_admitted_total{tier="default"}`,
		`attestd_admin_actions_total{action="evict"}`,
		`attestd_admin_actions_total{action="reattest"}`,
		`attestd_admin_actions_total{action="tier_override"}`,
		`attestd_admin_actions_total{action="drain"}`,
		// Agent-reported fleet aggregates.
		"attestd_fleet_received",
		"attestd_fleet_measurements",
		`attestd_fleet_gate_rejected{cause="auth"}`,
		`attestd_fleet_gate_rejected{cause="freshness"}`,
		`attestd_fleet_gate_rejected{cause="malformed"}`,
		// Transport codec.
		`transport_frames_total{dir="in"}`,
		`transport_frames_total{dir="out"}`,
		`transport_bytes_total{dir="in"}`,
		`transport_read_errors_total{cause="too_large"}`,
	}
	for _, name := range expected {
		if _, ok := series[name]; !ok {
			t.Errorf("expected series %s missing from scrape", name)
		}
	}
	if t.Failed() {
		t.Logf("scrape body:\n%s", raw)
		t.FailNow()
	}

	// Live values reflect the round the agent completed.
	if series["attestd_responses_accepted_total"] < 1 {
		t.Error("accepted counter not visible in exposition")
	}
	if series["attestd_fleet_measurements"] < 1 {
		t.Error("fleet measurement gauge not visible in exposition")
	}
	if series["attestd_attest_seconds_count"] < 1 {
		t.Error("attest latency histogram recorded nothing")
	}
	if series[`transport_frames_total{dir="in"}`] < 2 {
		t.Error("transport frame counter did not track the session")
	}
	if series["attestd_devices"] != 1 {
		t.Errorf("attestd_devices = %v, want 1", series["attestd_devices"])
	}
}
