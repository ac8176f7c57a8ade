package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"proverattest/internal/agent"
	"proverattest/internal/journal"
	"proverattest/internal/obs"
	"proverattest/internal/protocol"
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

// scrape serves reg's exposition over HTTP, as attestd -metrics does, and
// returns the body of one GET /metrics.
func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// expectSeries scrapes s's registry and fails on every series in want
// whose value differs.
func expectSeries(t *testing.T, s *Server, want map[string]float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series := parsePromText(t, buf.String())
	for key, v := range want {
		if got := series[key]; got != v {
			t.Errorf("%s = %v, want %v", key, got, v)
		}
	}
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

	raw := scrape(t, s.Metrics())
	series := parsePromText(t, raw)

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

// TestMetricsSmokeFamiliesDocumented keeps PROTOCOL.md's series inventory
// from drifting. It scrapes a daemon built over a PersistentStore, so the
// journal family registers too, and an agent, and fails for every family
// a "# TYPE" line declares that the "Observability" section names neither
// literally nor under a `prefix_*` family it lists. Its name puts it in
// `make metrics-smoke`.
func TestMetricsSmokeFamiliesDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Observability")
	if !ok {
		t.Fatal(`PROTOCOL.md has no "Observability" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	named := make(map[string]bool)
	var prefixes []string
	for _, span := range regexp.MustCompile("`[^`]+`").FindAllString(section, -1) {
		for _, name := range regexp.MustCompile(`[a-z][a-z0-9_]*\*?`).FindAllString(span, -1) {
			if prefix, ok := strings.CutSuffix(name, "*"); ok {
				prefixes = append(prefixes, prefix)
			} else {
				named[name] = true
			}
		}
	}
	documented := func(family string) bool {
		for _, prefix := range prefixes {
			if strings.HasPrefix(family, prefix) {
				return true
			}
		}
		return named[family]
	}

	daemon := obs.New()
	testServer(t, func(c *Config) {
		c.Metrics = daemon
		c.Store = openPersistent(t, t.TempDir(), PersistOptions{Fsync: journal.FsyncNone})
	})
	prover := obs.New()
	if _, err := agent.New(agent.Config{
		DeviceID:     "metrics-doc-dev",
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: testMaster,
		Metrics:      prover,
	}); err != nil {
		t.Fatal(err)
	}
	for _, exp := range []struct {
		binary string
		reg    *obs.Registry
		must   string // a family the scrape must declare
	}{
		{"attestd", daemon, "attestd_journal_appends_total"},
		{"attest-agent", prover, "agent_frames_total"},
	} {
		families := make(map[string]bool)
		for _, line := range strings.Split(scrape(t, exp.reg), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
				families[f[2]] = true
			}
		}
		if !families[exp.must] {
			t.Fatalf("%s's scrape declares no %s family", exp.binary, exp.must)
		}
		for family := range families {
			if !documented(family) {
				t.Errorf("%s exposes %s, which PROTOCOL.md's Observability section does not name", exp.binary, family)
			}
		}
	}
}

// TestAttestLatencySampledPerAcceptedRound: four devices answer every
// request at once, a round a millisecond each. onAttResp times each
// accepted round from its own request's issue stamp and records the
// sample before it counts the accept, so a reader that takes the accepted
// count first and the histogram's count second never sees more accepted
// rounds than samples, and once the daemon is closed a scrape shows the
// two equal. The ci.yml race step runs it.
func TestAttestLatencySampledPerAcceptedRound(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.FastPath = true
		c.AttestEvery = time.Millisecond
		c.Golden = make([]byte, 64) // a first, full round as quick as the rest
	})
	for i := 0; i < 4; i++ {
		session(t, s, fmt.Sprintf("latency-dev-%d", i), 0, nil)
	}
	deadline := time.Now().Add(15 * time.Second)
	for accepted := uint64(0); accepted < 300; {
		accepted = s.m.responsesAccepted.Load()
		if n := s.m.attestLat.Count(); n < accepted {
			t.Fatalf("a read saw %d accepted rounds and %d latency samples", accepted, n)
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d rounds accepted", accepted)
		}
		time.Sleep(50 * time.Microsecond)
	}
	s.Close()
	var buf strings.Builder
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series := parsePromText(t, buf.String())
	if n, accepted := series["attestd_attest_seconds_count"], series["attestd_responses_accepted_total"]; n != accepted {
		t.Fatalf("attestd_attest_seconds_count = %v, attestd_responses_accepted_total = %v; want one sample per accepted round", n, accepted)
	}
}
