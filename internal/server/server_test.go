package server

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"proverattest/internal/adversary"
	"proverattest/internal/agent"
	"proverattest/internal/core"
	"proverattest/internal/obs"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

var testMaster = []byte("net-test-master-secret")

func testServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: testMaster,
		Golden:       core.GoldenRAMPattern(),
		AttestEvery:  50 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// measuredAll reports whether every agent has answered at least n
// attestation requests.
func measuredAll(agents []*agent.Agent, n uint64) bool {
	for _, a := range agents {
		if a.Snapshot().Measurements < n {
			return false
		}
	}
	return true
}

func testAgent(t *testing.T, id string) *agent.Agent {
	t.Helper()
	a, err := agent.New(agent.Config{
		DeviceID:     id,
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: testMaster,
		StatsEvery:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{
		Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1,
		MasterSecret: testMaster, Golden: []byte{1},
	}
	for name, mutate := range map[string]func(*Config){
		"no master secret": func(c *Config) { c.MasterSecret = nil },
		"no golden":        func(c *Config) { c.Golden = nil },
		"timestamps":       func(c *Config) { c.Freshness = protocol.FreshTimestamp },
		"ecdsa sans key":   func(c *Config) { c.Auth = protocol.AuthECDSA },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

// TestNewKeepsGoldenBackingArray: New keeps the caller's image, which
// every device's verifier then shares, instead of a copy of it.
func TestNewKeepsGoldenBackingArray(t *testing.T) {
	golden := core.GoldenRAMPattern()
	s := testServer(t, func(c *Config) { c.Golden = golden })
	if len(s.cfg.Golden) != len(golden) || &s.cfg.Golden[0] != &golden[0] {
		t.Fatal("New copied Config.Golden instead of keeping the caller's slice")
	}
}

// TestNewAllocatesLessThanGolden: building the daemon allocates fewer
// bytes than the 512 KiB image, which a copy of it alone would take. The
// least of a few builds is taken, so that another goroutine's allocation
// inside one build's window cannot fail the test.
func TestNewAllocatesLessThanGolden(t *testing.T) {
	golden := core.GoldenRAMPattern()
	least := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := New(Config{
			Freshness:    protocol.FreshCounter,
			Auth:         protocol.AuthHMACSHA1,
			MasterSecret: testMaster,
			Golden:       golden,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= uint64(len(golden)) {
		t.Fatalf("New allocated %d bytes, not fewer than the %d-byte image", least, len(golden))
	}
	t.Logf("New allocated %d bytes", least)
}

// TestHonestRoundsOverTCP runs the daemon and several concurrent agents
// over real TCP on localhost and waits for accepted measurements from each.
func TestHonestRoundsOverTCP(t *testing.T) {
	s := testServer(t, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const agents = 4
	var wg sync.WaitGroup
	all := make([]*agent.Agent, agents)
	for i := range all {
		a := testAgent(t, fmt.Sprintf("tcp-dev-%d", i))
		all[i] = a
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Serve(ctx, nc) //nolint:errcheck
		}()
	}

	// Fleet-wide totals alone can be reached by three agents before the
	// fourth has said hello, so wait for every agent's own measurement.
	waitFor(t, 15*time.Second, "a measurement by every agent", func() bool { return measuredAll(all, 1) })
	waitFor(t, 15*time.Second, "one accepted measurement per agent", func() bool {
		return s.Counters().ResponsesAccepted >= agents
	})
	waitFor(t, 15*time.Second, "gate stats from every agent", func() bool {
		return s.AgentStats().Measurements >= agents
	})
	if got := s.Devices(); got != agents {
		t.Fatalf("Devices = %d, want %d", got, agents)
	}
	c := s.Counters()
	if c.ConnsAccepted != agents || c.ResponsesRejected != 0 || c.ResponsesUnsolicited != 0 {
		t.Fatalf("counters: %v", c)
	}
	cancel()
	wg.Wait()
	if n := s.Inflight(); n < 0 {
		t.Fatalf("Inflight = %d, want >= 0", n)
	}
}

func TestHelloPolicyMismatchRejected(t *testing.T) {
	s := testServer(t, nil)
	client, peer := net.Pipe()
	go s.HandleConn(peer)
	tc := transport.NewConn(client, transport.Options{})
	defer tc.Close()

	bad := &protocol.Hello{Freshness: protocol.FreshNone, Auth: protocol.AuthNone, DeviceID: "liar"}
	if err := tc.Send(bad.Encode()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "hello rejection", func() bool {
		return s.Counters().ConnsRejected == 1
	})
	if s.Counters().ConnsAccepted != 0 || s.Devices() != 0 {
		t.Fatalf("mismatched hello created state: %v, devices=%d", s.Counters(), s.Devices())
	}
}

func TestPerConnectionRateLimit(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.PerConnRatePerSec = 5
		c.PerConnBurst = 3
	})
	client, peer := net.Pipe()
	go s.HandleConn(peer)
	tc := transport.NewConn(client, transport.Options{WriteTimeout: 2 * time.Second})
	defer tc.Close()

	hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: "chatty"}
	if err := tc.Send(hello.Encode()); err != nil {
		t.Fatal(err)
	}
	// Burst far past the bucket. Junk stats frames are cheap to produce
	// and individually valid, so only the rate limiter stops them.
	junk := (&protocol.StatsReport{Received: 1}).Encode()
	for i := 0; i < 40; i++ {
		if err := tc.Send(junk); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "rate-limited frames", func() bool {
		c := s.Counters()
		return c.RateLimited > 0 && c.StatsReports > 0 && c.StatsReports <= 10
	})
}

func TestGlobalInflightCap(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.MaxInflight = 2
		c.AttestEvery = 5 * time.Millisecond
		c.RequestTimeout = time.Hour // nothing is ever abandoned in this test
	})
	client, peer := net.Pipe()
	go s.HandleConn(peer)
	tc := transport.NewConn(client, transport.Options{ReadTimeout: time.Second})
	defer tc.Close()

	hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: "mute"}
	if err := tc.Send(hello.Encode()); err != nil {
		t.Fatal(err)
	}
	// The mute prover never answers, so issuance stalls at the cap.
	go func() {
		for {
			if _, err := tc.Recv(); err != nil && !transport.IsTimeout(err) {
				return
			}
		}
	}()
	waitFor(t, 5*time.Second, "inflight throttling", func() bool {
		return s.Counters().InflightThrottled >= 3
	})
	c := s.Counters()
	if c.RequestsIssued != 2 {
		t.Fatalf("RequestsIssued = %d, want exactly MaxInflight=2", c.RequestsIssued)
	}
	if got := s.Inflight(); got != 2 {
		t.Fatalf("Inflight = %d, want 2", got)
	}
}

func TestRequestTimeoutAbandonsAndRetries(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.MaxInflight = 1
		c.AttestEvery = 10 * time.Millisecond
		c.RequestTimeout = 30 * time.Millisecond
	})
	client, peer := net.Pipe()
	go s.HandleConn(peer)
	tc := transport.NewConn(client, transport.Options{ReadTimeout: time.Second})
	defer tc.Close()

	hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: "deaf"}
	if err := tc.Send(hello.Encode()); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := tc.Recv(); err != nil && !transport.IsTimeout(err) {
				return
			}
		}
	}()
	// Each abandoned request frees the single inflight slot for the next
	// round — issuance makes progress despite a dead prover.
	waitFor(t, 10*time.Second, "abandon-and-retry cycles", func() bool {
		c := s.Counters()
		return c.RequestsAbandoned >= 2 && c.RequestsIssued >= 3
	})
}

// TestFloodAsymmetry is the acceptance demo in test form: the verifier
// impersonator sits on the socket between an agent and an honest daemon
// and floods the agent with forged, replayed and malformed frames, which
// cost the prover zero memory measurements beyond the honest request.
func TestFloodAsymmetry(t *testing.T) {
	const floodTotal = 30
	// The session's first request goes out at connect; the next tick
	// never comes, so it is the only honest one.
	s := testServer(t, func(c *Config) { c.AttestEvery = time.Hour })
	agentNC, relayDown := net.Pipe()
	relayUp, peer := net.Pipe()
	go s.HandleConn(peer)
	injected := make(chan int, 1)
	go func() {
		injected <- adversary.Relay(transport.NewConn(relayDown, transport.Options{}),
			transport.NewConn(relayUp, transport.Options{}), floodTotal)
	}()

	a := testAgent(t, "flooded-dev")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.Serve(ctx, agentNC) //nolint:errcheck
	}()

	waitFor(t, 20*time.Second, "all flood frames processed and reported", func() bool {
		return s.AgentStats().Received >= floodTotal+1
	})
	st := s.AgentStats()
	c := s.Counters()
	if st.Measurements != 1 {
		t.Fatalf("Measurements = %d, want 1 — flood frames bought MAC work", st.Measurements)
	}
	if st.GateRejected() != floodTotal {
		t.Fatalf("GateRejected = %d, want %d", st.GateRejected(), floodTotal)
	}
	// Each family dies at its own gate stage: forgeries at the tag check,
	// replays at the freshness check, malformed frames at the parser.
	if st.AuthRejected != floodTotal/3 || st.FreshnessRejected != floodTotal/3 || st.Malformed != floodTotal/3 {
		t.Fatalf("cause split = auth %d / fresh %d / malformed %d, want %d each",
			st.AuthRejected, st.FreshnessRejected, st.Malformed, floodTotal/3)
	}
	if c.RequestsIssued != 1 || c.ResponsesAccepted != 1 {
		t.Fatalf("daemon issued %d requests and accepted %d responses, want 1 and 1 (the honest request)",
			c.RequestsIssued, c.ResponsesAccepted)
	}
	cancel()
	<-done
	if n := <-injected; n != floodTotal {
		t.Fatalf("relay injected %d frames, want %d", n, floodTotal)
	}
}

// TestDeviceCreationRaceSingleInsert: concurrent first contacts for one
// identity must all end up on the same deviceState. Construction happens
// outside the shard lock, so several goroutines can build verifiers in
// parallel — but only the first insert may win, or the losers' verifiers
// would fork the device's nonce/counter stream.
func TestDeviceCreationRaceSingleInsert(t *testing.T) {
	s := testServer(t, nil)
	const callers = 16
	devs := make([]*deviceState, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			d, err := s.device("race-dev")
			if err != nil {
				t.Error(err)
				return
			}
			devs[i] = d
		}()
	}
	close(start)
	wg.Wait()
	for i := 1; i < callers; i++ {
		if devs[i] != devs[0] {
			t.Fatal("racing device() calls returned distinct states")
		}
	}
	if s.Devices() != 1 {
		t.Fatalf("Devices = %d after race, want 1", s.Devices())
	}
	// The losers found the winner under the lock and never reserved, so the
	// cap accounting must still be exact.
	if n := s.deviceCount.Load(); n != 1 {
		t.Fatalf("deviceCount = %d after race, want 1", n)
	}
}

// TestDevicesShareTheGoldenImage: every device's verifier reads the
// daemon's one copy of the golden image, so a device costs kilobytes of
// live heap, not another copy of the 512 KiB image.
func TestDevicesShareTheGoldenImage(t *testing.T) {
	const devices = 64
	s := testServer(t, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < devices; i++ {
		if _, err := s.device(fmt.Sprintf("golden-dev-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s.Devices() != devices {
		t.Fatalf("Devices = %d, want %d", s.Devices(), devices)
	}
	perDevice := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / devices
	if perDevice >= 64<<10 {
		t.Fatalf("%d bytes of live heap per device, want under 64 KiB", perDevice)
	}
	t.Logf("%d bytes of live heap per device", perDevice)
}

// TestDeviceTableCap: identities past Config.MaxDevices are refused at
// the hello — an ID-inventing flood cannot grow daemon memory without
// bound — while known devices keep reconnecting, and the refusal is its
// own conns_rejected cause.
func TestDeviceTableCap(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.MaxDevices = 2
		c.Metrics = obs.New()
	})
	hello := func(id string) {
		client, peer := net.Pipe()
		go s.HandleConn(peer)
		tc := transport.NewConn(client, transport.Options{})
		t.Cleanup(func() { tc.Close() })
		h := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: id}
		if err := tc.Send(h.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	hello("cap-dev-0")
	hello("cap-dev-1")
	waitFor(t, 5*time.Second, "both identities admitted", func() bool { return s.Devices() == 2 })

	hello("cap-dev-2")
	waitFor(t, 5*time.Second, "the third identity to be refused", func() bool {
		return s.Counters().DeviceTableFull == 1
	})
	if got := s.Devices(); got != 2 {
		t.Fatalf("Devices = %d after refusal, want 2", got)
	}
	if c := s.Counters(); c.ConnsRejected < c.DeviceTableFull {
		t.Fatalf("ConnsRejected = %d does not include DeviceTableFull = %d", c.ConnsRejected, c.DeviceTableFull)
	}

	// A known identity still gets in at the cap: the refusal is about new
	// table entries, not connections.
	hello("cap-dev-0")
	waitFor(t, 5*time.Second, "reconnect of a known device", func() bool {
		return s.Counters().ConnsAccepted >= 3
	})

	var sb strings.Builder
	if err := s.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	series := parsePromText(t, sb.String())
	if got := series[`attestd_conns_rejected_total{cause="device_table_full"}`]; got != 1 {
		t.Fatalf(`conns_rejected{cause="device_table_full"} = %v, want 1`, got)
	}
}

func TestCloseUnblocksServe(t *testing.T) {
	s := testServer(t, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	waitFor(t, 5*time.Second, "listener bound", func() bool { return s.Addr() != nil })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve after Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if err := s.Serve(ln); err != ErrClosed {
		t.Fatalf("Serve on closed server: %v, want ErrClosed", err)
	}
}
