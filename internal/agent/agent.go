// Package agent is the prover side of the networked attestation
// deployment: it dials the verifier daemon (internal/server), identifies
// itself with a session hello, and then feeds every inbound frame through
// the simulated device's trust anchor — the same Code_Attest gate the
// in-process scenarios exercise. The paper's DoS asymmetry is therefore
// preserved over real sockets: a frame that fails authentication or
// freshness dies after the cheap gate, and only authentic, fresh requests
// buy the ≈754 ms memory measurement.
//
// The agent never answers a frame the anchor rejected — silence is the
// prover's cheapest response — and periodically pushes its gate counters
// to the daemon as stats frames, so the fleet-wide rejected-at-gate versus
// MAC-work totals are observable server-side.
package agent

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"proverattest/internal/anchor"
	"proverattest/internal/cluster"
	"proverattest/internal/core"
	"proverattest/internal/mcu"
	"proverattest/internal/obs"
	"proverattest/internal/protocol"
	"proverattest/internal/services"
	"proverattest/internal/sim"
	"proverattest/internal/transport"
)

// Config assembles a networked prover agent.
type Config struct {
	// DeviceID identifies the prover to the daemon (1..protocol.MaxDeviceID
	// bytes).
	DeviceID string
	// Tier is the admission-tier class advertised in the hello
	// (0 = unclassified). It is a hint: the daemon's server-side tier
	// rules win whenever they claim this device's ID, and the advertised
	// class matters only for IDs no rule matches.
	Tier uint8
	// Freshness and Auth must match the daemon's provisioned policy; the
	// daemon refuses mismatched hellos. FreshTimestamp is not supported on
	// the networked path: the simulated prover clock advances with
	// simulated work, not wall time, so verifier and prover clocks cannot
	// be meaningfully synchronised across the socket.
	Freshness protocol.FreshnessKind
	Auth      protocol.AuthKind
	// MasterSecret derives this device's K_Attest
	// (protocol.DeriveDeviceKey), matching the daemon's derivation. Nil
	// falls back to core.DefaultAttestKey for single-device setups.
	MasterSecret []byte
	// Protection selects the anchor's EA-MPU mitigations (zero value:
	// anchor.FullProtection).
	Protection *anchor.Protection
	// FastPath installs the RATA-style write monitor on the device, so a
	// clean prover answers requests that permit it with the O(1) fast MAC
	// instead of the full memory measurement. Must match the daemon's
	// -fastpath setting: a monitored agent against a fastpath-less daemon
	// simply never sees AllowFast requests and always measures fully.
	FastPath bool
	// NonceCapacity bounds the nonce history for FreshNonceHistory.
	NonceCapacity int
	// SwarmFleet, when > 0, provisions the device for collective (swarm)
	// attestation: the anchor gates SwarmReq frames with the fleet-wide
	// broadcast key K_Swarm (derived from MasterSecret, which becomes
	// required) and answers with its keyed own-tag aggregate. SwarmIndex
	// is this device's member index in the fleet spanning tree; SwarmFleet
	// is the fleet member count (it sizes the presence bitmap).
	SwarmFleet int
	SwarmIndex uint16
	// EnableServices installs the secure-update/erase/clock-sync services
	// behind the gate, so the daemon can drive service commands too.
	EnableServices bool

	// StatsEvery is the heartbeat at which the agent reports its gate
	// counters to the daemon (default 250 ms).
	StatsEvery time.Duration
	// MaxFrame bounds frame payloads (0 = transport.DefaultMaxFrame).
	MaxFrame uint32
	// WriteTimeout bounds one frame write (default 10 s).
	WriteTimeout time.Duration

	// Metrics, when non-nil, receives the agent's observability series:
	// serve-loop counters, transport codec counters, and gauge re-exports
	// of the anchor's gate statistics. Registration happens once in New;
	// recording is allocation-free (see internal/obs). One registry serves
	// one agent — sharing a registry across agents panics on the duplicate
	// series.
	Metrics *obs.Registry
}

// Agent is a connected (or connectable) prover.
type Agent struct {
	cfg Config
	dev *core.Device

	// procCh serialises access to the simulated device: the MCU model is
	// single-core and not safe for concurrent use, exactly like the
	// hardware it stands in for.
	procCh chan struct{}

	framesIn uint64 // frames pulled off the socket (guarded by procCh)

	// now and sleep are the Run loop's injectable clock: production uses
	// the wall clock, backoff tests freeze it. sleep returns false when
	// the context cancelled the wait.
	now   func() time.Time
	sleep func(context.Context, time.Duration) bool

	m *agentMetrics
}

// New builds the agent's simulated device: MCU, trust anchor, secure boot.
func New(cfg Config) (*Agent, error) {
	if cfg.DeviceID == "" || len(cfg.DeviceID) > protocol.MaxDeviceID {
		return nil, fmt.Errorf("agent: device id length %d out of range (1..%d)", len(cfg.DeviceID), protocol.MaxDeviceID)
	}
	if cfg.Freshness == protocol.FreshTimestamp {
		return nil, errors.New("agent: timestamp freshness is not supported over the socket path (prover clock is simulated)")
	}
	if cfg.StatsEvery <= 0 {
		cfg.StatsEvery = 250 * time.Millisecond
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}

	key := core.DefaultAttestKey
	if cfg.MasterSecret != nil {
		derived := protocol.DeriveDeviceKey(cfg.MasterSecret, cfg.DeviceID)
		key = derived[:]
	}
	prot := anchor.FullProtection()
	if cfg.Protection != nil {
		prot = *cfg.Protection
	}
	acfg := anchor.Config{
		AttestKey:     key,
		Freshness:     cfg.Freshness,
		NonceCapacity: cfg.NonceCapacity,
		Monitor:       cfg.FastPath,
		Protection:    prot,
	}
	if cfg.SwarmFleet > 0 {
		if cfg.MasterSecret == nil {
			return nil, errors.New("agent: swarm participation requires MasterSecret (K_Swarm derivation)")
		}
		sk := protocol.DeriveSwarmKey(cfg.MasterSecret)
		acfg.SwarmKey = sk[:]
		acfg.SwarmIndex = cfg.SwarmIndex
		acfg.SwarmFleet = cfg.SwarmFleet
	}
	if err := core.NewDeviceAuth(cfg.Auth, &acfg); err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	dev, err := core.NewDevice(sim.NewKernel(), core.DeviceConfig{Anchor: acfg})
	if err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	a := &Agent{cfg: cfg, dev: dev, procCh: make(chan struct{}, 1), now: time.Now, sleep: sleepCtx}
	a.procCh <- struct{}{}
	a.m = newAgentMetrics(cfg.Metrics)
	a.registerGauges(cfg.Metrics)
	if cfg.EnableServices {
		// The services package is wired through core's scenario layer; the
		// networked agent installs the same handlers directly.
		installServices(dev)
	}
	return a, nil
}

// installServices mirrors core's scenario wiring: the standard service
// handlers behind the anchor's gate.
func installServices(dev *core.Device) {
	services.InstallUpdateService(dev.A, core.AppImageRegion)
	services.InstallEraseService(dev.A, mcu.RAMRegion)
	services.InstallClockSyncService(dev.A, 500)
}

// Device exposes the simulated prover (tests and examples inspect its
// anchor stats and golden memory).
func (a *Agent) Device() *core.Device { return a.dev }

// lock acquires the device.
func (a *Agent) lock() { <-a.procCh }

// unlock releases the device.
func (a *Agent) unlock() { a.procCh <- struct{}{} }

// Process feeds one raw frame through the trust anchor's gate and drives
// the simulated MCU until the resulting job chain settles. It returns the
// encoded response, or nil when the anchor rejected the frame (the prover
// stays silent — rejection must not cost a transmission either).
func (a *Agent) Process(frame []byte) []byte {
	a.lock()
	defer a.unlock()
	return a.processLocked(frame)
}

func (a *Agent) processLocked(frame []byte) []byte {
	a.framesIn++
	var reply []byte
	responded := false
	respond := func(out []byte) {
		reply = append([]byte(nil), out...)
		responded = true
	}
	rejects := func() uint64 {
		st := a.dev.A.Stats
		return st.Malformed + st.AuthRejected + st.FreshnessRejected + st.Faults
	}
	before := rejects()
	switch protocol.ClassifyFrame(frame) {
	case protocol.FrameCommandReq:
		a.dev.A.HandleCommand(frame, respond)
	case protocol.FrameSwarmReq:
		// A networked agent is a leaf of whatever aggregation fabric sits
		// above it: gate + own tag, then the aggregate (its own
		// contribution) straight back. On a star topology the own-only
		// bisection probe and the leaf case of a full round are the same
		// exchange; a gate rejection stays silent like every other frame.
		a.dev.A.HandleSwarmBegin(frame, func(err error) {
			if err != nil {
				return
			}
			a.dev.A.SwarmRespond(respond)
		})
	default:
		// Attestation requests and garbage alike go through Code_Attest's
		// request path: the prover cannot afford to pre-filter frames
		// before the gate, or the gate's cost accounting would lie.
		a.dev.A.HandleRequest(frame, respond)
	}
	// Drive the discrete-event kernel until the submitted work answers or
	// rejects. With the agent's clockless configuration the queue drains;
	// the reject check additionally stops early so a future clocked
	// configuration cannot spin on periodic timer events.
	for !responded && a.dev.K.Pending() > 0 {
		a.dev.K.Step()
		if rejects() > before {
			break
		}
	}
	return reply
}

// Snapshot reports the agent's cumulative gate counters as the wire-format
// stats frame.
func (a *Agent) Snapshot() protocol.StatsReport {
	a.lock()
	defer a.unlock()
	return a.snapshotLocked()
}

func (a *Agent) snapshotLocked() protocol.StatsReport {
	st := a.dev.A.Stats
	return protocol.StatsReport{
		Received:          st.Received,
		Malformed:         st.Malformed,
		AuthRejected:      st.AuthRejected,
		FreshnessRejected: st.FreshnessRejected,
		Faults:            st.Faults,
		Measurements:      st.Measurements,
		FastResponses:     st.FastResponses,
		Commands:          st.Commands,
		CommandsExecuted:  st.CommandsExecuted,
		ActiveCycles:      uint64(a.dev.M.ActiveCycles),
		FramesIn:          a.framesIn,
	}
}

// Serve runs the agent over an established connection until the context is
// cancelled or the peer closes. The caller dials (net.Dial, net.Pipe, …);
// Serve sends the hello, then answers requests and heartbeats stats.
//
// Exit-error contract (normalised in one place, pinned by serve_test.go):
//
//   - nil: the peer closed cleanly at a frame boundary. Raw io.EOF never
//     escapes — a clean close is not an error, on any path.
//   - ctx.Err(): our own context ended the session, whatever transport
//     error the resulting close surfaced first.
//   - *RedirectError: a cluster daemon answered the hello with the
//     device's owner instead of a session (the first frame was a
//     redirect). The caller should redial the carried address;
//     RunAddrs does so without backoff.
//   - anything else: a transport failure, with the cause preserved for
//     errors.Is (io.ErrUnexpectedEOF for a torn frame,
//     transport.ErrFrameTooLarge for a hostile prefix, …).
func (a *Agent) Serve(ctx context.Context, nc net.Conn) error {
	err := a.serve(ctx, nc)
	// Exactly one exit-cause series increments per Serve call: clean peer
	// close, our own cancellation, a redirect, or a transport failure.
	var re *RedirectError
	switch {
	case err == nil:
		a.m.exitEOF.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		a.m.exitCanceled.Inc()
	case errors.As(err, &re):
		a.m.exitRedirect.Inc()
	default:
		a.m.exitError.Inc()
	}
	return err
}

// RedirectError reports that the daemon we dialed does not own this
// device: a cluster peer answered the hello with the owner's coordinates
// and closed. It is a routing outcome, not a failure — the session simply
// belongs elsewhere.
type RedirectError struct {
	Owner string // owning daemon's node name
	Addr  string // address to redial
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("agent: device owned by %s (%s)", e.Owner, e.Addr)
}

func (a *Agent) serve(ctx context.Context, nc net.Conn) error {
	tc := transport.NewConn(nc, transport.Options{
		MaxFrame: a.cfg.MaxFrame,
		// The read deadline doubles as the stats heartbeat: every quiet
		// interval, push counters instead of blocking forever.
		ReadTimeout:  a.cfg.StatsEvery,
		WriteTimeout: a.cfg.WriteTimeout,
		Metrics:      a.m.transport,
	})
	defer tc.Close()

	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-ctx.Done():
			tc.Close()
		case <-stopWatch:
		}
	}()

	hello := &protocol.Hello{
		Freshness: a.cfg.Freshness,
		Auth:      a.cfg.Auth,
		Tier:      a.cfg.Tier,
		DeviceID:  a.cfg.DeviceID,
	}
	if err := tc.Send(hello.Encode()); err != nil {
		return a.exitErr(ctx, fmt.Errorf("agent: sending hello: %w", err))
	}

	var statsBuf []byte // reused stats-frame scratch (Serve is tc's only writer)
	first := true
	for {
		// RecvShared reuses the connection's frame buffer: Process hands the
		// frame to the anchor, which copies it before queueing the gate job,
		// so nothing aliases the buffer past the call.
		frame, err := tc.RecvShared()
		if err != nil {
			if transport.IsTimeout(err) {
				first = false
				if statsBuf, err = a.sendStats(tc, statsBuf); err != nil {
					return a.exitErr(ctx, err)
				}
				continue
			}
			return a.exitErr(ctx, err)
		}
		a.m.framesIn.Inc()
		if first {
			first = false
			// A cluster daemon that does not own this device answers the
			// hello with a redirect and nothing else; only the session's
			// first frame is honoured as one, so a mid-session forgery
			// cannot hijack an established exchange — past this point the
			// frame falls through to the anchor's gate like any garbage.
			if owner, addr, ok := cluster.DecodeRedirect(frame); ok {
				a.m.redirects.Inc()
				return &RedirectError{Owner: owner, Addr: addr}
			}
		}
		reply := a.Process(frame)
		if reply != nil {
			if err := tc.Send(reply); err != nil {
				return a.exitErr(ctx, err)
			}
			a.m.replies.Inc()
			// A completed measurement is the expensive event the daemon
			// audits; piggyback fresh counters on it immediately rather
			// than waiting for the next quiet heartbeat.
			if statsBuf, err = a.sendStats(tc, statsBuf); err != nil {
				return a.exitErr(ctx, err)
			}
		}
	}
}

// sendStats pushes a counter snapshot, encoding into scratch and returning
// it (possibly grown) for reuse.
func (a *Agent) sendStats(tc *transport.Conn, scratch []byte) ([]byte, error) {
	st := a.Snapshot()
	scratch = st.AppendEncode(scratch[:0])
	err := tc.Send(scratch)
	if err == nil {
		a.m.statsSent.Inc()
	}
	return scratch, err
}

// exitErr normalises every Serve exit to the documented contract: our own
// context-driven close reports the context error; a clean peer close (raw
// io.EOF at a frame boundary, from any path) reports nil; everything else
// passes through with its cause intact. A torn frame is io.ErrUnexpectedEOF,
// which is deliberately not io.EOF — a peer dying mid-frame is a failure,
// not a clean shutdown.
func (a *Agent) exitErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}

// Dialer establishes one connection to the daemon for the supervised Run
// loop.
type Dialer func(ctx context.Context) (net.Conn, error)

// Run supervises the agent across connection failures: dial, serve,
// and — when the link dies for any reason but our own cancellation —
// back off and reconnect. Each new session re-sends the hello (Serve
// always does) and the simulated device persists across sessions, so the
// gate counters keep climbing and the daemon sees one continuous stats
// epoch: a reconnect is not a reboot, and fleet aggregates stay monotone
// without invoking the high-water fold.
//
// The backoff schedule is capped exponential with deterministic seeded
// jitter (see Backoff); a session that lives past Backoff.ResetAfter
// resets the schedule, so a healthy fleet pays Base — not the accumulated
// cap — for an isolated hiccup. Run returns only when ctx is cancelled
// (always ctx.Err()); every other failure is retried forever, because a
// prover's job is to keep serving attestation through adversity.
func (a *Agent) Run(ctx context.Context, dial Dialer, bo Backoff) error {
	bt := NewBackoffTimer(bo)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		nc, err := dial(ctx)
		if err != nil {
			a.m.dialErrors.Inc()
			if !a.backoffSleep(ctx, bt) {
				return ctx.Err()
			}
			continue
		}
		a.m.sessions.Inc()
		started := a.now()
		err = a.Serve(ctx, nc)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		_ = err // Serve already recorded the exit cause on its counters
		if a.now().Sub(started) >= bt.ResetAfter() {
			bt.Reset()
		}
		a.m.reconnects.Inc()
		if !a.backoffSleep(ctx, bt) {
			return ctx.Err()
		}
	}
}

// RunAddrs supervises the agent against a verifier cluster: it rotates
// through the configured daemon addresses, and when a daemon answers the
// hello with an ownership redirect it redials the carried address
// immediately — no backoff, because a redirect is routing, not failure.
// Any other session end (owner died, clean close, transport error) falls
// back to the address list with the usual capped-exponential backoff, so
// failover converges on whichever surviving daemon the ring now says owns
// the device.
//
// A redirect storm — more consecutive redirects than the cluster has
// daemons, plus slack for one ownership change mid-chase — means the
// ring view is flapping; the loop then backs off like a failure instead
// of hot-looping between daemons. Like Run, RunAddrs returns only when
// ctx is cancelled.
func (a *Agent) RunAddrs(ctx context.Context, addrs []string, bo Backoff) error {
	if len(addrs) == 0 {
		return errors.New("agent: RunAddrs needs at least one daemon address")
	}
	bt := NewBackoffTimer(bo)
	var nd net.Dialer
	cur := 0         // rotation cursor into addrs
	target := ""     // redirect target overriding the rotation
	redirectRun := 0 // consecutive redirects (storm guard)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		addr := target
		if addr == "" {
			addr = addrs[cur%len(addrs)]
		}
		nc, err := nd.DialContext(ctx, "tcp", addr)
		if err != nil {
			a.m.dialErrors.Inc()
			// A dead redirect target (owner crashed between redirect and
			// redial) falls back to the list — some survivor will redirect
			// us to, or be, the new owner.
			target = ""
			cur++
			if !a.backoffSleep(ctx, bt) {
				return ctx.Err()
			}
			continue
		}
		a.m.sessions.Inc()
		started := a.now()
		err = a.Serve(ctx, nc)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var re *RedirectError
		if errors.As(err, &re) {
			redirectRun++
			if redirectRun <= len(addrs)+2 {
				target = re.Addr
				continue
			}
			// Storm: fall through to the backoff path with the rotation.
		} else {
			redirectRun = 0
		}
		target = ""
		cur++
		if a.now().Sub(started) >= bt.ResetAfter() {
			bt.Reset()
		}
		a.m.reconnects.Inc()
		if !a.backoffSleep(ctx, bt) {
			return ctx.Err()
		}
	}
}

// backoffSleep draws the next delay, exposes it on the backoff gauge for
// the duration of the wait, and sleeps it (context-aware). Returns false
// when the context ended the wait.
func (a *Agent) backoffSleep(ctx context.Context, bt *BackoffTimer) bool {
	d := bt.Next()
	a.m.backoffGauge.Set(int64(d))
	ok := a.sleep(ctx, d)
	a.m.backoffGauge.Set(0)
	return ok
}

// sleepCtx is the production sleep: a timer raced against the context.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-tm.C:
		return true
	}
}
