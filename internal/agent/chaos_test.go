package agent

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"proverattest/internal/core"
	"proverattest/internal/faultnet"
	"proverattest/internal/protocol"
	"proverattest/internal/server"
)

// Chaos integration: the supervised Run loop against a real daemon over
// real TCP, with faultnet injecting the network's bad days in between.
// The invariants are the tentpole's survival properties — verdicts keep
// flowing, the agent reconnects on its own, and the daemon's fleet
// aggregates never move backwards or declare a phantom reboot.

func chaosServer(t *testing.T, mutate ...func(*server.Config)) (*server.Server, string) {
	t.Helper()
	cfg := server.Config{
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: testMaster,
		Golden:       core.GoldenRAMPattern(),
		AttestEvery:  20 * time.Millisecond,
		// Short enough that requests lost to injected faults free their
		// inflight slots within the test, long enough to answer honestly.
		RequestTimeout: 500 * time.Millisecond,
		ReadTimeout:    time.Second,
		WriteTimeout:   time.Second,
		HelloTimeout:   time.Second,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func chaosAgent(t *testing.T, id string, mutate ...func(*Config)) *Agent {
	t.Helper()
	cfg := Config{
		DeviceID:     id,
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: testMaster,
		StatsEvery:   15 * time.Millisecond,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// faultDialer dials addr over TCP and wraps each connection with the
// fault schedule, seeding every session's fault stream differently but
// deterministically. dials counts attempts; faulting can be flipped off
// to end the chaos phase.
func faultDialer(addr string, sched *faultnet.Schedule, seed int64, dials *atomic.Int64, faulting *atomic.Bool) Dialer {
	return func(ctx context.Context) (net.Conn, error) {
		n := dials.Add(1)
		var d net.Dialer
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if faulting != nil && !faulting.Load() {
			return nc, nil
		}
		return faultnet.Wrap(nc, sched, faultnet.Options{Seed: seed + n}), nil
	}
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// monotoneSampler polls the daemon's fleet aggregate and fails the test
// if any sampled counter ever decreases — the continuity rule injected
// reconnects must not break.
func monotoneSampler(t *testing.T, s *server.Server, stop <-chan struct{}, done chan<- struct{}) {
	t.Helper()
	go func() {
		defer close(done)
		var prev protocol.StatsReport
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			cur := s.AgentStats()
			if cur.Regressed(&prev) {
				t.Errorf("fleet aggregate regressed: %+v -> %+v", prev, cur)
				return
			}
			prev = cur
		}
	}()
}

func TestRunSurvivesChaos(t *testing.T) {
	cases := []struct {
		name     string
		schedule string
		// reconnects: the schedule tears connections, so the agent must
		// establish several sessions. Schedules that only mangle traffic
		// may ride one connection the whole time.
		reconnects bool
		// epochsStable: intact-or-absent schedules must produce zero
		// phantom reboots. Corruption can forge stats values, which the
		// daemon correctly treats as an epoch roll, so it is exempt.
		epochsStable bool
	}{
		{"flap", "flap=150ms:reset", true, true},
		{"midframe-reset", "every=25:reset", true, true},
		{"corrupt", "every=7:corrupt", false, false},
		{"drop-and-delay", "pct=10:drop;all:delay=1ms", false, true},
	}
	for i, tc := range cases {
		tc := tc
		i := i
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, addr := chaosServer(t)
			a := chaosAgent(t, fmt.Sprintf("chaos-%s", tc.name))

			var dials atomic.Int64
			dial := faultDialer(addr, faultnet.MustParseSchedule(tc.schedule), 1000*int64(i+1), &dials, nil)

			stopSample := make(chan struct{})
			sampleDone := make(chan struct{})
			monotoneSampler(t, s, stopSample, sampleDone)

			ctx, cancel := context.WithCancel(context.Background())
			runDone := make(chan error, 1)
			go func() {
				runDone <- a.Run(ctx, dial, Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.2, Seed: int64(i)})
			}()

			waitUntil(t, 30*time.Second, "accepted verdicts despite chaos", func() bool {
				return s.Counters().ResponsesAccepted >= 3
			})
			if tc.reconnects {
				waitUntil(t, 30*time.Second, "agent re-established sessions", func() bool {
					return dials.Load() >= 2
				})
			}
			waitUntil(t, 30*time.Second, "fleet stats flowing", func() bool {
				return s.Counters().StatsReports >= 2
			})

			cancel()
			select {
			case err := <-runDone:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Run returned %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run did not exit on cancel")
			}
			close(stopSample)
			<-sampleDone

			if tc.epochsStable {
				if got := s.Counters().StatsEpochs; got != 0 {
					t.Fatalf("StatsEpochs = %d after reconnect-only chaos, want 0 (device state is continuous)", got)
				}
			}
			if s.Devices() != 1 {
				t.Fatalf("Devices = %d, want 1 (reconnects must reuse server-side state)", s.Devices())
			}
		})
	}
}

// TestFastPathSurvivesReconnect: connection teardown must not cost the
// device its fast-path privilege. The dirty bit, the monitor epoch and
// the daemon's verified digest/epoch record all live outside the
// connection, so once the fast path is armed, flapping sessions resync
// to it without a single re-measurement — and without a fast mismatch.
func TestFastPathSurvivesReconnect(t *testing.T) {
	s, addr := chaosServer(t, func(c *server.Config) { c.FastPath = true })
	a := chaosAgent(t, "fast-reconnect-dev", func(c *Config) { c.FastPath = true })

	var dials atomic.Int64
	dial := faultDialer(addr, faultnet.MustParseSchedule("flap=150ms:reset"), 7700, &dials, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() {
		runDone <- a.Run(ctx, dial, Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.2, Seed: 42})
	}()

	waitUntil(t, 30*time.Second, "the fast path to arm and serve a round", func() bool {
		return s.Counters().ResponsesFast >= 1
	})
	// Once armed, reconnects must never force a re-measurement: a full
	// round is only spent where verifier state is actually lost.
	measured := a.Snapshot().Measurements
	dialsSeen := dials.Load()
	fastSeen := s.Counters().ResponsesFast
	waitUntil(t, 30*time.Second, "fast rounds across several more sessions", func() bool {
		return dials.Load() >= dialsSeen+2 && s.Counters().ResponsesFast >= fastSeen+5
	})
	if got := a.Snapshot().Measurements; got != measured {
		t.Fatalf("Measurements grew %d -> %d across reconnects; teardown must not revoke the fast path", measured, got)
	}
	if got := s.Counters().ResponsesFastRejected; got != 0 {
		t.Fatalf("ResponsesFastRejected = %d, want 0 (reconnects must not desync the fast MAC)", got)
	}

	cancel()
	select {
	case err := <-runDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not exit on cancel")
	}
}

// TestDaemonRestartForcesOneFullMAC: a daemon restart loses the
// verifier's digest/epoch record, and the resync contract says that
// costs the device exactly one full-MAC round — the new daemon's first
// requests withhold fast permission, one full measurement re-establishes
// the record, then the fast path resumes with no mismatch.
func TestDaemonRestartForcesOneFullMAC(t *testing.T) {
	// A slow attestation period keeps rounds strictly sequential, so "one
	// full round to resync" is exact rather than racing the issue ticker.
	fastCfg := func(c *server.Config) {
		c.FastPath = true
		c.AttestEvery = 60 * time.Millisecond
	}
	s1, addr1 := chaosServer(t, fastCfg)

	var target atomic.Value
	target.Store(addr1)
	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", target.Load().(string))
	}

	a := chaosAgent(t, "fast-restart-dev", func(c *Config) { c.FastPath = true })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() {
		runDone <- a.Run(ctx, dial, Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond, Seed: 9})
	}()

	waitUntil(t, 30*time.Second, "fast rounds on the first daemon", func() bool {
		return s1.Counters().ResponsesFast >= 2
	})
	measured := a.Snapshot().Measurements
	s1.Close() // the verified digest/epoch record dies with the daemon

	s2, addr2 := chaosServer(t, fastCfg)
	target.Store(addr2)
	waitUntil(t, 30*time.Second, "fast rounds resumed on the new daemon", func() bool {
		return s2.Counters().ResponsesFast >= 2
	})
	if got := a.Snapshot().Measurements; got != measured+1 {
		t.Fatalf("Measurements %d -> %d across the restart, want exactly one resync measurement", measured, got)
	}
	c := s2.Counters()
	if full := c.ResponsesAccepted - c.ResponsesFast; full != 1 {
		t.Fatalf("new daemon accepted %d full rounds, want exactly 1 before the fast path resumed", full)
	}
	if c.ResponsesFastRejected != 0 {
		t.Fatalf("ResponsesFastRejected = %d on the new daemon, want 0 (cold start resyncs via full-only requests, not mismatches)", c.ResponsesFastRejected)
	}

	cancel()
	select {
	case err := <-runDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not exit on cancel")
	}
}

// TestRestartBehindManyStaleCounters: a daemon restarted without its
// journal issues counters the device has already seen, and the device
// drops every one as stale, unanswered. The new daemon cannot tell such a
// request from a full measurement in progress: it waits on the first one
// for one RequestTimeout, then stops waiting until the device answers and
// catches up at one counter per tick, not one per RequestTimeout.
func TestRestartBehindManyStaleCounters(t *testing.T) {
	fastCfg := func(every time.Duration) func(*server.Config) {
		return func(c *server.Config) {
			c.FastPath = true
			c.AttestEvery = every
		}
	}
	s1, addr1 := chaosServer(t, fastCfg(2*time.Millisecond))

	var target atomic.Value
	target.Store(addr1)
	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", target.Load().(string))
	}
	a := chaosAgent(t, "stale-restart-dev", func(c *Config) { c.FastPath = true })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() {
		runDone <- a.Run(ctx, dial, Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond, Seed: 11})
	}()

	const stale = 300
	waitUntil(t, 30*time.Second, "the device to hold many counters", func() bool {
		return s1.Counters().ResponsesAccepted >= stale
	})
	s1.Close()

	// One request per RequestTimeout (500 ms here) would take the new
	// daemon past two minutes to reach a counter the device accepts.
	s2, addr2 := chaosServer(t, fastCfg(5*time.Millisecond))
	target.Store(addr2)
	t0 := time.Now()
	waitUntil(t, 30*time.Second, "fast rounds on the new daemon", func() bool {
		return s2.Counters().ResponsesFast >= 2
	})
	c := s2.Counters()
	if c.RequestsIssued < stale {
		t.Fatalf("new daemon issued %d requests before its first verdicts, want at least the %d stale counters", c.RequestsIssued, stale)
	}
	if c.ResponsesFastRejected != 0 {
		t.Fatalf("ResponsesFastRejected = %d on the new daemon, want 0", c.ResponsesFastRejected)
	}
	t.Logf("caught up past %d+ stale counters in %v (%d requests issued, %d abandoned)",
		stale, time.Since(t0).Round(time.Millisecond), c.RequestsIssued, c.RequestsAbandoned)

	cancel()
	select {
	case err := <-runDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not exit on cancel")
	}
}

// TestRunRidesOutDaemonRestart kills the daemon's listener entirely and
// brings a new daemon up on a fresh address: the outage window exercises
// dial failures (not just dead conns), and the agent must find the new
// daemon and resume with its counters intact.
func TestRunRidesOutDaemonRestart(t *testing.T) {
	s1, addr1 := chaosServer(t)

	var target atomic.Value
	target.Store(addr1)
	var dials atomic.Int64
	dial := func(ctx context.Context) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, "tcp", target.Load().(string))
	}

	a := chaosAgent(t, "restart-dev")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() {
		runDone <- a.Run(ctx, dial, Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond, Seed: 3})
	}()

	waitUntil(t, 30*time.Second, "verdicts from the first daemon", func() bool {
		return s1.Counters().ResponsesAccepted >= 1
	})
	received1 := a.Snapshot().Received
	s1.Close() // outage: dials now fail until the new daemon is up

	s2, addr2 := chaosServer(t)
	target.Store(addr2)
	waitUntil(t, 30*time.Second, "verdicts from the second daemon", func() bool {
		return s2.Counters().ResponsesAccepted >= 1
	})
	if got := a.Snapshot().Received; got <= received1 {
		t.Fatalf("agent counters did not continue across the restart: %d -> %d", received1, got)
	}
	if got := s2.Counters().StatsEpochs; got != 0 {
		t.Fatalf("StatsEpochs = %d on the new daemon, want 0 (the device never rebooted)", got)
	}

	cancel()
	select {
	case err := <-runDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not exit on cancel")
	}
}
