package agent

import (
	"context"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proverattest/internal/cluster"
	"proverattest/internal/mcu"
	"proverattest/internal/protocol"
	"proverattest/internal/services"
	"proverattest/internal/transport"
)

// These tests pin RunAddrs' routing against plain TCP listeners standing
// in for cluster daemons: each reads the agent's hello and answers as the
// test scripts — an ownership redirect, or nothing — then closes. The
// Run loop's clock is faked, so every backoff shows up as a recorded
// sleep.

// serveHellos accepts connections on ln until the test ends. For each it
// reads the hello, counts it and hands the connection to answer with the
// running count; the connection is closed when answer returns.
func serveHellos(t *testing.T, ln net.Listener, answer func(n int64, tc *transport.Conn)) *atomic.Int64 {
	t.Helper()
	var hellos atomic.Int64
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				tc := transport.NewConn(nc, transport.Options{ReadTimeout: 5 * time.Second})
				frame, err := tc.Recv()
				if err != nil {
					return
				}
				if _, err := protocol.DecodeHello(frame); err != nil {
					t.Errorf("first frame is not a hello: %v", err)
					return
				}
				answer(hellos.Add(1), tc)
			}()
		}
	}()
	return &hellos
}

func listenTCP(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// redirectTo answers every hello with a redirect to addr.
func redirectTo(addr string) func(int64, *transport.Conn) {
	return func(_ int64, tc *transport.Conn) {
		_ = tc.Send(cluster.EncodeRedirect("owner", addr))
	}
}

// fakeRunClock puts a's Run loop on a fake clock that records sleeps.
func fakeRunClock(a *Agent) *runClock {
	clk := newRunClock()
	a.now, a.sleep = clk.Now, clk.Sleep
	return clk
}

// runAddrs runs RunAddrs and returns its error, failing the test if it
// does not return within a bound.
func runAddrs(t *testing.T, ctx context.Context, a *Agent, addrs []string) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- a.RunAddrs(ctx, addrs, Backoff{Base: 100 * time.Millisecond, Max: 10 * time.Second, Multiplier: 2})
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("RunAddrs did not return")
		return nil
	}
}

func TestRunAddrsFollowsRedirectWithoutBackoff(t *testing.T) {
	a, reg := metricAgent(t, nil)
	clk := fakeRunClock(a)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	owner := listenTCP(t)
	ownerHellos := serveHellos(t, owner, func(int64, *transport.Conn) { cancel() })
	entry := listenTCP(t)
	entryHellos := serveHellos(t, entry, redirectTo(owner.Addr().String()))

	if err := runAddrs(t, ctx, a, []string{entry.Addr().String()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAddrs returned %v, want context.Canceled", err)
	}
	if got := clk.sleeps(); len(got) != 0 {
		t.Fatalf("a redirect backed off %v before the redial; want none", got)
	}
	if e, o := entryHellos.Load(), ownerHellos.Load(); e != 1 || o != 1 {
		t.Fatalf("hellos: entry %d, owner %d; want 1 each", e, o)
	}
	series := scrapeRegistry(t, reg)
	if series["agent_redirects_total"] != 1 || series["agent_sessions_total"] != 2 || series["agent_reconnects_total"] != 0 {
		t.Fatalf("redirects=%v sessions=%v reconnects=%v, want 1/2/0", series["agent_redirects_total"],
			series["agent_sessions_total"], series["agent_reconnects_total"])
	}
}

// TestRunAddrsRedirectStormBacksOff: a daemon that keeps redirecting to
// itself is followed len(addrs)+2 times; the next redirect falls back to
// the rotation with backoff, which moves on to the next address.
func TestRunAddrsRedirectStormBacksOff(t *testing.T) {
	a, reg := metricAgent(t, nil)
	clk := fakeRunClock(a)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loop := listenTCP(t)
	loopHellos := serveHellos(t, loop, redirectTo(loop.Addr().String()))
	next := listenTCP(t)
	nextHellos := serveHellos(t, next, func(int64, *transport.Conn) { cancel() })

	addrs := []string{loop.Addr().String(), next.Addr().String()}
	if err := runAddrs(t, ctx, a, addrs); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAddrs returned %v, want context.Canceled", err)
	}
	// The rotation's dial plus len(addrs)+2 = 4 followed redirects reach
	// the looping daemon 5 times; the 5th redirect is the storm.
	if l, n := loopHellos.Load(), nextHellos.Load(); l != 5 || n != 1 {
		t.Fatalf("hellos: looping daemon %d, next address %d; want 5 and 1", l, n)
	}
	if got, want := clk.sleeps(), []time.Duration{100 * time.Millisecond}; !slices.Equal(got, want) {
		t.Fatalf("sleeps = %v, want %v", got, want)
	}
	if got := scrapeRegistry(t, reg)["agent_redirects_total"]; got != 5 {
		t.Fatalf("agent_redirects_total = %v, want 5", got)
	}
}

// TestRunAddrsDeadRedirectTargetFallsBack: an owner that died between the
// redirect and the redial costs one dial error and one backoff, then the
// loop resumes the address list where the rotation stood.
func TestRunAddrsDeadRedirectTargetFallsBack(t *testing.T) {
	a, reg := metricAgent(t, nil)
	clk := fakeRunClock(a)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dead := listenTCP(t)
	deadAddr := dead.Addr().String()
	dead.Close()
	entry := listenTCP(t)
	entryHellos := serveHellos(t, entry, redirectTo(deadAddr))
	survivor := listenTCP(t)
	survivorHellos := serveHellos(t, survivor, func(int64, *transport.Conn) { cancel() })

	addrs := []string{entry.Addr().String(), survivor.Addr().String()}
	if err := runAddrs(t, ctx, a, addrs); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAddrs returned %v, want context.Canceled", err)
	}
	if e, s := entryHellos.Load(), survivorHellos.Load(); e != 1 || s != 1 {
		t.Fatalf("hellos: entry %d, survivor %d; want 1 each", e, s)
	}
	if got, want := clk.sleeps(), []time.Duration{100 * time.Millisecond}; !slices.Equal(got, want) {
		t.Fatalf("sleeps = %v, want %v", got, want)
	}
	if got := scrapeRegistry(t, reg)["agent_dial_errors_total"]; got != 1 {
		t.Fatalf("agent_dial_errors_total = %v, want 1", got)
	}
}

func TestRunAddrsNeedsAnAddress(t *testing.T) {
	a, _ := metricAgent(t, nil)
	err := a.RunAddrs(context.Background(), nil, Backoff{})
	if err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("RunAddrs with no addresses returned %v, want a configuration error", err)
	}
}

// TestServeReportsRedirect: a redirect as the session's first frame ends
// Serve with a *RedirectError carrying the owner, counted on the redirect
// exit series.
func TestServeReportsRedirect(t *testing.T) {
	a, reg := metricAgent(t, nil)
	agentSide, peerSide := tcpPair(t)
	done := serveResult(context.Background(), a, agentSide)
	peer := transport.NewConn(peerSide, transport.Options{ReadTimeout: 5 * time.Second})
	drainHello(t, peer)
	if err := peer.Send(cluster.EncodeRedirect("d2", "10.0.0.2:7000")); err != nil {
		t.Fatal(err)
	}
	err := waitExit(t, done)
	var re *RedirectError
	if !errors.As(err, &re) || re.Owner != "d2" || re.Addr != "10.0.0.2:7000" {
		t.Fatalf("Serve returned %v, want a redirect to d2 at 10.0.0.2:7000", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "d2") || !strings.Contains(msg, "10.0.0.2:7000") {
		t.Fatalf("redirect error %q does not name the owner and its address", msg)
	}
	if got := scrapeRegistry(t, reg)[`agent_serve_exits_total{cause="redirect"}`]; got != 1 {
		t.Fatalf("redirect exits = %v, want 1", got)
	}
}

// TestEnableServicesInstallsHandlers: with EnableServices the update,
// erase and clock-sync commands reach a handler behind the gate; without
// it the anchor refuses each as unregistered.
func TestEnableServicesInstallsHandlers(t *testing.T) {
	kinds := []protocol.CommandKind{protocol.CmdSecureUpdate, protocol.CmdSecureErase, protocol.CmdClockSync}
	for _, enabled := range []bool{false, true} {
		a, _ := metricAgent(t, func(c *Config) { c.EnableServices = enabled })
		v := testVerifierFor(t, a, protocol.FreshCounter)
		for i, kind := range kinds {
			req, err := v.NewCommand(kind, nil)
			if err != nil {
				t.Fatal(err)
			}
			reply := a.Process(req.Encode())
			if reply == nil {
				t.Fatalf("services=%v: command %v got no sealed verdict", enabled, kind)
			}
			if _, err := v.CheckCommandResponse(reply); err != nil {
				t.Fatalf("services=%v: command %v: %v", enabled, kind, err)
			}
			want := uint64(0)
			if enabled {
				want = uint64(i + 1)
			}
			if got := a.Device().A.Stats.CommandsExecuted; got != want {
				t.Fatalf("services=%v: after command %v, %d executed, want %d", enabled, kind, got, want)
			}
		}
	}

	// The installed erase handler runs for real: erasing a RAM range
	// returns the digest of the zeroed range.
	a, _ := metricAgent(t, func(c *Config) { c.EnableServices = true })
	v := testVerifierFor(t, a, protocol.FreshCounter)
	const n = 64
	req, err := v.NewCommand(protocol.CmdSecureErase, services.EncodeErase(services.EraseRequest{Addr: mcu.RAMRegion.Start, Size: n}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := v.CheckCommandResponse(a.Process(req.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if proof := services.ErasureProof(n); resp.Status != protocol.StatusOK || string(resp.Body) != string(proof[:]) {
		t.Fatalf("erase: status %d body %x, want OK with the erasure proof", resp.Status, resp.Body)
	}
}
