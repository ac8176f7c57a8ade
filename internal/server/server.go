// Package server implements attestd, the verifier daemon of the networked
// deployment: it accepts many concurrent prover-agent connections
// (internal/agent dials in — the NAT-friendly direction for embedded
// fleets), keeps per-prover protocol.Verifier state behind each device's
// own mutex so freshness decisions stay server-side across reconnects (the
// TOCTOU argument for stateful verifiers), issues authenticated
// attestation requests on a schedule, and validates the measurement
// responses.
//
// Two defensive layers sit in front of the per-device verifier state,
// mirroring the prover's cheap-gate-before-expensive-work principle on the
// verifier side: a per-connection token-bucket rate limit (a chatty or
// hostile agent cannot monopolise the daemon), and a global inflight cap
// (the daemon never holds more outstanding requests — each of which costs
// a golden-image MAC to validate — than it budgeted for).
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"proverattest/internal/cluster"
	"proverattest/internal/crypto/ecc"
	"proverattest/internal/obs"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// Config assembles the daemon.
type Config struct {
	// Freshness and Auth are the deployment's provisioned policy; hellos
	// declaring anything else are refused. FreshTimestamp is not supported
	// on the socket path (the simulated prover clock does not track wall
	// time).
	Freshness protocol.FreshnessKind
	Auth      protocol.AuthKind
	// MasterSecret derives each device's K_Attest
	// (protocol.DeriveDeviceKey); required.
	MasterSecret []byte
	// Golden is the expected measured-memory image shared by the fleet
	// (provision.GoldenRAM for simulated agents); required. New keeps the
	// slice, which every device's verifier shares and only reads; the
	// caller must not write to it afterwards (the contract of
	// protocol.VerifierConfig.Golden).
	Golden []byte
	// ECDSAKey signs requests when Auth == AuthECDSA.
	ECDSAKey *ecc.PrivateKey

	// FastPath lets per-device verifiers grant the RATA-style O(1)
	// fast-path response to provers with a write monitor: once a device's
	// full measurement verifies, subsequent requests permit a MAC over
	// (request, last verified digest, monitor epoch) instead of the
	// full-memory MAC. Full-MAC-only provers are unaffected — they ignore
	// the permission bit and the daemon still verifies their full
	// measurements.
	FastPath bool

	// Shards is the verifier-state store stripe count (default 16), used
	// when Store is nil.
	Shards int
	// Store is the per-device verifier-state backend (default: the
	// striped in-memory store, NewShardedStore(Shards)).
	Store VerifierStore

	// Cluster, when non-nil, puts the daemon in cluster mode: it serves
	// only the devices the consistent-hash ring assigns to it, redirects
	// other devices' hellos to their owners, answers peers' state-handoff
	// requests, and replicates freshness snapshots to each device's ring
	// successor. See internal/cluster and PROTOCOL.md "Cluster ownership
	// & state handoff".
	Cluster *cluster.Node

	// MaxRatePerSec caps the daemon-wide inbound frame admission rate
	// across all connections (0 = unlimited). It models a per-daemon
	// provisioned serving budget: where the per-connection bucket protects
	// the daemon from one hostile peer, this bucket protects the box from
	// the aggregate — and in cluster benchmarks it is what makes
	// frames/sec capacity a per-daemon quantity that must add up
	// linearly across daemons. Over-budget frames are dropped at the gate
	// and counted (attestd_rejects_total{cause="daemon_rate"}).
	MaxRatePerSec float64
	// MaxRateBurst is the daemon-wide bucket depth (default
	// max(64, MaxRatePerSec)).
	MaxRateBurst int
	// MaxConns bounds concurrent connections (default 1024).
	MaxConns int
	// MaxDevices caps the device table (default 4096). Device state is
	// created at hello time for any claimed ID and each entry holds a
	// verifier with its keyed MACs (about 1.2 KiB; the golden image is
	// shared), so an unauthenticated peer inventing IDs could otherwise
	// grow daemon memory without bound; hellos past the cap are refused
	// with conns_rejected{cause="device_table_full"}.
	MaxDevices int
	// MaxInflight caps outstanding requests across all provers — each
	// outstanding request is a future golden-image MAC the daemon has
	// committed to computing (default 256). A request holds its slot until
	// it is answered, it expires (RequestTimeout) or its session ends; no
	// session holds more than 16 (maxSessionPending), so a few mute
	// sessions cannot take every slot.
	MaxInflight int
	// PerConnRatePerSec is each connection's inbound-frame budget; frames
	// over budget are dropped and counted, the connection stays up
	// (0 = unlimited). When Tiers is set this field must be zero — each
	// tier carries its own per-connection budget.
	PerConnRatePerSec float64
	// PerConnBurst is the token-bucket depth (default max(16, rate));
	// like PerConnRatePerSec, it must be zero when Tiers is set.
	PerConnBurst int

	// Tiers partitions the fleet into admission tiers, each with its own
	// tier-wide and per-connection budgets (see TierSpec). nil selects
	// the implicit single-tier policy built from PerConnRatePerSec /
	// PerConnBurst, whose admission decisions are identical to the old
	// flat limiter. The tier-isolation property — a flooding tier
	// exhausts its own budget without moving another tier's authentic
	// latency — is what the tier-isolation drill (TestGoldTierIsolation,
	// built under the drill tag) checks.
	Tiers *TierPolicy

	// AttestEvery is the per-prover attestation period (default 1 s).
	AttestEvery time.Duration
	// RequestTimeout abandons an unanswered request so its inflight slot
	// frees and a later round can retry with a fresh request (default 10 s).
	// The session that sent the request retires it on the first wake of
	// its issue loop at or after the deadline.
	RequestTimeout time.Duration

	// MaxFrame, ReadTimeout and WriteTimeout parameterise the transport
	// (defaults: transport.DefaultMaxFrame, 30 s, 10 s).
	MaxFrame     uint32
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// HelloTimeout bounds the wait for a connection's first frame
	// (default 5 s). A fresh connection has proven nothing yet, so it gets
	// a far shorter leash than the steady-state ReadTimeout: a slow-loris
	// peer that dribbles bytes without ever completing a hello is cut off
	// here instead of holding an fd for ReadTimeout.
	HelloTimeout time.Duration

	// Swarm, when non-nil, additionally provisions the daemon as a swarm
	// verifier: aggregate attestation rounds are driven through the
	// spanning-tree root's ("gateway") connection — one request frame and
	// one aggregate response per round for the whole fleet, with
	// bisection probes on the same connection when an aggregate fails.
	// The 1:1 issue schedule still runs for directly connected devices.
	Swarm *SwarmConfig

	// Metrics is the registry the daemon registers its series on (see
	// internal/obs); nil gives the daemon a private registry. Recording is
	// always on — it is atomics-only and allocation-free, so there is
	// nothing to turn off — the registry only decides where a scrape
	// endpoint (attestd -metrics) can read the series from.
	Metrics *obs.Registry
}

// Counters is a snapshot of the daemon's observable state, the
// verifier-side half of the experiment read-out. The prover-side half
// (rejected-at-gate by cause, MAC work) is aggregated from agent stats
// frames; see Server.AgentStats. The same values — plus latency
// histograms — are exported as Prometheus series through the obs registry
// (see Config.Metrics and Server.Metrics).
//
// Every reject cause is a distinct counter: malformed frames, unknown
// frame kinds, unsolicited responses and rate-limited frames each die at
// a different stage of the gate, and the asymmetry argument is per-stage.
// The historical roll-ups (ConnsRejected, ResponsesRejected) remain as
// sums of their causes.
type Counters struct {
	ConnsAccepted uint64 // hellos accepted
	ConnsRejected uint64 // sum of all connection-refusal causes below

	HellosMalformed uint64 // first frame unreadable or not a parseable hello
	HelloTimeouts   uint64 // first frame missed the hello deadline (slow-loris)
	PolicyMismatch  uint64 // hello declared the wrong freshness/auth policy
	ConnsOverCap    uint64 // accept-side MaxConns refusals
	DeviceTableFull uint64 // new device identities refused at MaxDevices

	Evictions     uint64 // established connections cut for read/write stalls
	AcceptRetries uint64 // transient listener failures survived by the accept loop

	FramesIn      uint64 // frames read off sockets (post-hello)
	RateLimited   uint64 // frames dropped by the per-connection budget
	TierLimited   uint64 // frames dropped by a tier-wide budget
	UnknownFrames uint64 // frames of no recognised kind

	MalformedFrames uint64 // classified frames failing strict decode (responses + stats)

	RequestsIssued    uint64 // honest attestation requests sent
	InflightThrottled uint64 // issue ticks skipped at the global cap
	RequestsAbandoned uint64 // requests retired by timeout

	ResponsesAccepted     uint64 // measurements matching the golden image
	ResponsesFast         uint64 // accepted responses that took the O(1) fast path
	ResponsesRejected     uint64 // malformed + mismatched + fast-mismatched + rejected command responses
	ResponsesMalformed    uint64 // responses failing strict decode
	ResponsesMismatched   uint64 // well-formed responses with a wrong measurement
	ResponsesFastRejected uint64 // fast responses failing the digest/epoch record check
	ResponsesUnsolicited  uint64 // responses to no outstanding nonce

	StatsReports uint64 // agent stats frames received
	StatsEpochs  uint64 // agent counter resets (reboots) detected

	SwarmRounds     uint64 // aggregate rounds driven over the gateway connection
	SwarmBisections uint64 // bisection probes issued to localize failed aggregates

	Redirects         uint64 // device hellos answered with the owner's address (cluster mode)
	HandoffsLive      uint64 // devices adopted with exact state from the previous owner
	HandoffsReplica   uint64 // devices adopted from a replicated snapshot (jumped)
	StateExports      uint64 // device states handed off to a requesting peer
	PeerConns         uint64 // peer links accepted from other daemons
	DaemonRateLimited uint64 // frames dropped by the daemon-wide budget (MaxRatePerSec)

	RecoveredExact  uint64 // journal-recovered devices adopted live-exact on reconnect
	RecoveredJumped uint64 // journal-recovered devices adopted with a restart freshness jump
}

func (m *serverMetrics) snapshot() Counters {
	helloBad := m.connRejIO.Load() + m.connRejHello.Load()
	rej := func(c rejectCause) uint64 { return m.rejects[c].Load() }
	respMalformed := rej(causeMalformedResponse)
	mismatched := rej(causeBadMeasurement)
	fastMismatched := rej(causeFastMismatch)
	return Counters{
		ConnsAccepted: m.connsAccepted.Load(),
		ConnsRejected: helloBad + m.connRejHelloSlow.Load() + m.connRejPolicy.Load() +
			m.connRejCap.Load() + m.connRejDraining.Load() + m.connRejDeviceNew.Load() +
			m.connRejDeviceFull.Load(),
		HellosMalformed: helloBad,
		HelloTimeouts:   m.connRejHelloSlow.Load(),
		PolicyMismatch:  m.connRejPolicy.Load(),
		ConnsOverCap:    m.connRejCap.Load(),
		DeviceTableFull: m.connRejDeviceFull.Load(),

		Evictions:     m.evictReadStall.Load() + m.evictWriteStall.Load(),
		AcceptRetries: m.acceptRetries.Load(),

		FramesIn:        m.framesIn.Load(),
		RateLimited:     rej(causeRateLimited),
		TierLimited:     rej(causeTierLimited),
		UnknownFrames:   rej(causeUnknownKind),
		MalformedFrames: respMalformed + rej(causeMalformedStats) + rej(causeMalformedSwarm),

		RequestsIssued:    m.requestsIssued.Load(),
		InflightThrottled: m.inflightThrottled.Load(),
		RequestsAbandoned: m.requestsAbandoned.Load(),

		ResponsesAccepted:     m.responsesAccepted.Load(),
		ResponsesFast:         m.responsesFast.Load(),
		ResponsesRejected:     respMalformed + mismatched + fastMismatched + rej(causeCommandRejected),
		ResponsesMalformed:    respMalformed,
		ResponsesMismatched:   mismatched,
		ResponsesFastRejected: fastMismatched,
		ResponsesUnsolicited:  rej(causeUnsolicited),

		StatsReports: m.statsReports.Load(),
		StatsEpochs:  m.statsEpochs.Load(),

		SwarmRounds:     m.swarmRounds.Load(),
		SwarmBisections: m.swarmBisections.Load(),

		Redirects:         m.redirects.Load(),
		HandoffsLive:      m.handoffsLive.Load(),
		HandoffsReplica:   m.handoffsReplica.Load(),
		StateExports:      m.stateExports.Load(),
		PeerConns:         m.peerConns.Load(),
		DaemonRateLimited: rej(causeDaemonRate),

		RecoveredExact:  m.recoveredExact.Load(),
		RecoveredJumped: m.recoveredJumped.Load(),
	}
}

// deviceState is one prover's server-side state. It outlives connections:
// a reconnecting device resumes its nonce/counter stream, which is what
// keeps replayed responses from a previous session rejectable.
//
// The verifier and the stats below live behind the entry's own mutex
// (the VerifierStore guards only its map), except v.Unissued, which
// onAttResp calls without it.
type deviceState struct {
	id string
	mu sync.Mutex

	v *protocol.Verifier

	// handedOff flips (under mu) when a peer daemon has taken this
	// device's state: the entry is a husk, and issueOne must not advance
	// the counter stream the new owner now carries — a counter consumed
	// here after the export would collide with one the new owner issues.
	handedOff bool

	// lastStats is the latest agent-reported gate-counter snapshot, valid
	// once haveLast is set; statsBase accumulates the final snapshot of
	// every *previous* counter epoch (a reboot resets the agent's counters
	// to zero, which onStats detects as a regression and folds into the
	// base). Exported fleet aggregates are base + latest, which is
	// monotonic across reboots. All four are guarded by mu.
	lastStats   protocol.StatsReport
	haveLast    bool
	statsBase   protocol.StatsReport
	statsEpochs uint64

	// tier is the admission tier this device resolved into, set at
	// device creation and re-resolved at each hello (the advertisement
	// can only matter when no server-side rule claims the ID). An atomic
	// pointer so serveRead reads it, once per socket read, without
	// touching mu.
	tier atomic.Pointer[tier]

	// kick asks the device's issue loop for an immediate round instead
	// of waiting out the AttestEvery tick — the admin API's lever for
	// force-reattest and for tearing down an evicted device's session
	// promptly. Buffered so kicking never blocks.
	kick chan struct{}
}

// setTier moves the device between tiers, keeping the per-tier device
// population counts exact.
func (d *deviceState) setTier(t *tier) {
	if old := d.tier.Swap(t); old != t {
		if old != nil {
			old.devices.Add(-1)
		}
		if t != nil {
			t.devices.Add(1)
		}
	}
}

// kickIssue nudges the issue loop without blocking; a kick already
// pending is the same kick.
func (d *deviceState) kickIssue() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// Server is the verifier daemon.
type Server struct {
	cfg   Config
	store VerifierStore

	// cl is the daemon's cluster identity (nil outside cluster mode).
	cl *cluster.Node

	// persist is set when Config.Store is a *PersistentStore: the serving
	// paths then feed it dirty marks (and, under fsync=always, the
	// write-ahead barrier on the issue path). nil keeps every hot path
	// exactly as it was — one pointer compare per site.
	persist *PersistentStore

	// dBucket is the daemon-wide admission bucket (nil when
	// Config.MaxRatePerSec is 0, which keeps the single-daemon serving
	// path untouched).
	dBucket *lockedBucket

	// tiers is the compiled admission-tier policy (never nil; a flat
	// config compiles to the implicit single default tier).
	tiers *tierSet

	// deviceCount tracks the device-table population, enforcing
	// Config.MaxDevices without a global sweep on every hello.
	deviceCount atomic.Int64

	inflight atomic.Int64
	reg      *obs.Registry
	m        *serverMetrics

	// swarm is the aggregate-attestation coordinator (nil unless
	// Config.Swarm provisioned one).
	swarm *swarmCoordinator

	// draining flips once, when Shutdown starts: the accept loop refuses
	// new connections and the issue loops stop committing to new requests
	// (drainCh is closed), while established connections stay up so their
	// outstanding verdicts can flush.
	draining atomic.Bool
	drainCh  chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ErrClosed is returned by Serve after Close.
var ErrClosed = errors.New("server: closed")

// New validates the configuration and builds the daemon.
func New(cfg Config) (*Server, error) {
	if len(cfg.MasterSecret) == 0 {
		return nil, errors.New("server: MasterSecret is required (per-device key derivation)")
	}
	if len(cfg.Golden) == 0 {
		return nil, errors.New("server: Golden image is required")
	}
	if cfg.Freshness == protocol.FreshTimestamp {
		return nil, errors.New("server: timestamp freshness is not supported over the socket path")
	}
	if cfg.Auth == protocol.AuthECDSA && cfg.ECDSAKey == nil {
		return nil, errors.New("server: ECDSA auth needs the signing key")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	if cfg.MaxDevices <= 0 {
		cfg.MaxDevices = 4096
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.AttestEvery <= 0 {
		cfg.AttestEvery = time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.HelloTimeout <= 0 {
		cfg.HelloTimeout = 5 * time.Second
	}
	if cfg.Tiers != nil && (cfg.PerConnRatePerSec != 0 || cfg.PerConnBurst != 0) {
		return nil, errors.New("server: PerConnRatePerSec/PerConnBurst apply only without Tiers; set each tier's conn-rate=/conn-burst= instead")
	}
	if cfg.PerConnBurst <= 0 {
		cfg.PerConnBurst = 16
		if int(cfg.PerConnRatePerSec) > cfg.PerConnBurst {
			cfg.PerConnBurst = int(cfg.PerConnRatePerSec)
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	store := cfg.Store
	if store == nil {
		store = NewShardedStore(cfg.Shards)
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		cl:      cfg.Cluster,
		conns:   make(map[net.Conn]struct{}),
		drainCh: make(chan struct{}),
		reg:     reg,
		m:       newServerMetrics(reg),
	}
	tiers, err := buildTiers(cfg.Tiers, cfg.PerConnRatePerSec, cfg.PerConnBurst, reg)
	if err != nil {
		return nil, err
	}
	s.tiers = tiers
	if ps, ok := store.(*PersistentStore); ok {
		s.persist = ps
		ps.bindFsyncObserver(func(d time.Duration) { s.m.fsyncLat.Observe(d) })
	}
	if cfg.MaxRatePerSec > 0 {
		burst := float64(cfg.MaxRateBurst)
		if burst <= 0 {
			burst = 64
			if cfg.MaxRatePerSec > burst {
				burst = cfg.MaxRatePerSec
			}
		}
		s.dBucket = newLockedBucket(cfg.MaxRatePerSec, burst, monoNow())
	}
	if s.cl != nil {
		// The replication pusher reads each dirty device's current
		// snapshot straight out of this daemon's store.
		s.cl.BindSource(s.snapshotFor)
	}
	if cfg.Swarm != nil {
		sc, err := newSwarmCoordinator(&s.cfg)
		if err != nil {
			return nil, err
		}
		s.swarm = sc
	}
	s.registerGauges(reg)
	return s, nil
}

// Counters snapshots the daemon's counters.
func (s *Server) Counters() Counters { return s.m.snapshot() }

// Metrics is the registry holding the daemon's series (the one passed in
// Config.Metrics, or the private one built in its absence) — the handle
// an exposition endpoint (obs.Handler) serves from.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// AgentStats aggregates every known device's gate counters: the
// fleet-wide requests-seen / rejected-at-gate (by cause) / MAC-work
// totals the experiments read out.
//
// The aggregate is monotonic: each device contributes its high-water base
// (the sum of every completed counter epoch — see onStats' reboot
// detection) plus its latest report. A device that reboots and reconnects
// with counters reset to zero therefore never drags a fleet total
// backwards; the pre-reboot work stays counted in the base.
func (s *Server) AgentStats() protocol.StatsReport {
	var sum protocol.StatsReport
	s.store.Range(func(d *deviceState) bool {
		// base and latest must be read under one lock acquisition: onStats
		// folds the latest report into the base on a reboot detection, and
		// reading the base before that fold but the (reset) report after it
		// would drop a whole epoch from the total — a non-monotone dip.
		d.mu.Lock()
		sum.Accumulate(&d.statsBase)
		if d.haveLast {
			sum.Accumulate(&d.lastStats)
		}
		d.mu.Unlock()
		return true
	})
	return sum
}

// Devices reports how many provers this daemon currently holds state for
// — in cluster mode, the devices it owns (handed-off devices leave the
// count).
func (s *Server) Devices() int { return s.store.Len() }

// Inflight reports the current number of outstanding requests.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// errDeviceTableFull refuses a hello that would grow the device table
// past Config.MaxDevices. Static so the refusal path never allocates
// under an ID-inventing flood.
var errDeviceTableFull = errors.New("server: device table full")

// device returns the per-prover state, creating it (and its verifier) on
// first contact. Construction — key derivation, authenticator setup and a
// verifier over the daemon's one golden image — happens *outside* the
// shard lock: it is the expensive part of a cold start, and holding the
// stripe mutex through it would let a burst of unknown IDs stall every
// established device on the same shard. The lock then covers only a
// re-check (first insert wins; a racing construction is discarded) and
// the capped insert.
func (s *Server) device(deviceID string) (*deviceState, error) {
	if d, ok := s.store.Get(deviceID); ok {
		return d, nil
	}

	key := protocol.DeriveDeviceKey(s.cfg.MasterSecret, deviceID)
	auth, err := newAuthenticator(s.cfg.Auth, key[:], s.cfg.ECDSAKey)
	if err != nil {
		return nil, err
	}
	v, err := protocol.NewVerifier(protocol.VerifierConfig{
		Freshness:     s.cfg.Freshness,
		Auth:          auth,
		AttestKey:     key[:],
		Golden:        s.cfg.Golden,
		AllowFastPath: s.cfg.FastPath,
	})
	if err != nil {
		return nil, err
	}
	d := &deviceState{id: deviceID, v: v, kick: make(chan struct{}, 1)}

	// Cluster mode: first contact on this daemon is usually a device
	// whose previous owner still holds (or replicated) its freshness
	// state. Adopt it before publication so the device's counter stream
	// continues instead of restarting — the freshness-survival invariant.
	handoff := s.adoptClusterState(d, deviceID)

	// Standalone restart: the same invariant, sourced from the journal. A
	// cluster peer's state is fresher than disk (it kept serving while
	// this daemon was down), so disk only fills in when no peer did.
	recoveredExact, recovered := false, false
	if handoff == handoffNone && s.persist != nil {
		if snap, exact, ok := s.persist.TakeRecovered(deviceID); ok {
			d.importSnapshot(snap)
			recoveredExact, recovered = exact, true
		}
	}

	// Reserve-then-check keeps the cap exact: two inserts racing on
	// different devices both Add before either could Load.
	if s.deviceCount.Add(1) > int64(s.cfg.MaxDevices) {
		s.deviceCount.Add(-1)
		return nil, errDeviceTableFull
	}
	if cur, inserted := s.store.Put(deviceID, d); !inserted {
		// Lost the creation race; the winner's state carries the device's
		// nonce/counter stream, so it must be the one everyone uses.
		s.deviceCount.Add(-1)
		return cur, nil
	}
	// Tier placement by ID rules (the hello path re-resolves with the
	// advertised class, which only matters when no ID rule claims it).
	d.setTier(s.tiers.resolve(deviceID, 0))
	switch handoff {
	case handoffLive:
		s.m.handoffsLive.Inc()
	case handoffReplica:
		s.m.handoffsReplica.Inc()
	}
	if recovered {
		if recoveredExact {
			s.m.recoveredExact.Inc()
		} else {
			s.m.recoveredJumped.Inc()
		}
	}
	return d, nil
}

// newAuthenticator builds the request signer for one device, mirroring the
// prover-side keying: symmetric schemes key themselves from the device's
// K_Attest, ECDSA uses the daemon's signing identity.
func newAuthenticator(kind protocol.AuthKind, key []byte, ecdsaKey *ecc.PrivateKey) (protocol.Authenticator, error) {
	switch kind {
	case protocol.AuthNone:
		return protocol.NoAuth{}, nil
	case protocol.AuthHMACSHA1:
		return protocol.NewHMACAuth(key), nil
	case protocol.AuthECDSA:
		return protocol.NewECDSAAuth(ecdsaKey), nil
	default:
		return protocol.NewAuthenticator(kind, key[:16])
	}
}

// ListenAndServe listens on a TCP address and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections until the listener fails hard or Close (or
// Shutdown) is called. Transient accept failures — fd exhaustion, an
// injected fault from a chaos harness, anything reporting
// Temporary() == true — are survived with a short escalating pause
// instead of killing the daemon's only accept loop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	const maxAcceptPause = time.Second
	acceptPause := 5 * time.Millisecond
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || s.draining.Load() {
				return nil
			}
			var te interface{ Temporary() bool }
			if errors.As(err, &te) && te.Temporary() {
				s.m.acceptRetries.Inc()
				time.Sleep(acceptPause)
				if acceptPause *= 2; acceptPause > maxAcceptPause {
					acceptPause = maxAcceptPause
				}
				continue
			}
			return err
		}
		acceptPause = 5 * time.Millisecond
		s.mu.Lock()
		if s.closed || s.draining.Load() {
			s.mu.Unlock()
			s.m.connRejDraining.Inc()
			nc.Close()
			continue
		}
		if len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.m.connRejCap.Inc()
			nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(nc)
	}
}

// Addr reports the bound listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Healthy is the liveness probe (/healthz): true as long as the process
// can answer at all — including while draining, on purpose. Liveness
// restarting a daemon mid-drain would turn every rollout into a crash.
func (s *Server) Healthy() bool { return true }

// Ready is the readiness probe (/readyz): whether a load balancer should
// route new connections here. False while draining (Shutdown's refusal
// contract), after Close, before a listener is bound, and — in cluster
// mode — while the shared membership view marks this node down (peers
// would redirect its devices elsewhere, so feeding it traffic only adds
// a hop). The reason string is what the probe body reports.
func (s *Server) Ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	s.mu.Lock()
	ln, closed := s.ln, s.closed
	s.mu.Unlock()
	if closed {
		return false, "closed"
	}
	if ln == nil {
		return false, "no listener bound"
	}
	if s.cl != nil {
		self := s.cl.Self().Name
		alive := false
		for _, mem := range s.cl.Membership().Alive() {
			if mem.Name == self {
				alive = true
				break
			}
		}
		if !alive {
			return false, "cluster membership marks this node down"
		}
	}
	return true, ""
}

// Shutdown drains the daemon gracefully: it stops accepting connections,
// stops issuing new attestation requests, waits for every outstanding
// request to resolve (a verdict arrives or the request times out and is
// abandoned), then closes the remaining connections and returns. The
// wait is bounded by ctx; on expiry the daemon is closed anyway and
// ctx's error is returned, with however many verdicts were still
// pending simply dropped.
//
// Established connections stay up during the drain on purpose — they
// are the pipes the pending verdicts arrive on. Only once the inflight
// count reaches zero (or ctx expires) are they closed.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		s.m.draining.Set(1)
		close(s.drainCh)
	}
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close() // stop accepting; Serve returns nil (draining)
	}

	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for s.Inflight() > 0 {
		select {
		case <-ctx.Done():
			s.Close()
			s.m.draining.Set(0)
			return ctx.Err()
		case <-ticker.C:
		}
	}
	err := s.Close()
	s.m.draining.Set(0)
	return err
}

// Close stops the listener, closes every connection and waits for the
// connection handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, nc := range conns {
		nc.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) dropConn(nc net.Conn) {
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	nc.Close()
	s.wg.Done()
}

// HandleConn serves one established connection synchronously — the entry
// point for tests and in-process loopbacks (net.Pipe) that bypass the
// listener. The connection counts toward no accept-side limits.
func (s *Server) HandleConn(nc net.Conn) {
	s.mu.Lock()
	s.conns[nc] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.handleConn(nc)
}

func (s *Server) handleConn(nc net.Conn) {
	defer s.dropConn(nc)
	s.handleConnInner(nc)
}

func (s *Server) handleConnInner(nc net.Conn) {
	// The first frame gets the short hello deadline; only after the peer
	// has proven it speaks the protocol does the connection earn the
	// steady-state ReadTimeout.
	tc := transport.NewConn(nc, transport.Options{
		MaxFrame:     s.cfg.MaxFrame,
		ReadTimeout:  s.cfg.HelloTimeout,
		WriteTimeout: s.cfg.WriteTimeout,
		Metrics:      s.m.transport,
	})

	// The first frame must be a policy-matching hello. Each refusal cause
	// is its own series: a scrape can tell a misprovisioned fleet (policy
	// mismatches) from a port scanner (malformed hellos) from a
	// slow-loris (hello timeouts).
	frame, err := tc.Recv()
	if err != nil {
		if transport.IsTimeout(err) {
			s.m.connRejHelloSlow.Inc()
		} else {
			s.m.connRejIO.Inc()
		}
		return
	}
	tc.SetReadTimeout(s.cfg.ReadTimeout)
	// A peer daemon opens its link with a cluster peer hello instead of a
	// device hello; the connection then speaks the state-transfer
	// protocol, never the attestation one.
	if s.cl != nil && cluster.IsPeerHello(frame) {
		s.servePeer(tc, frame)
		return
	}
	hello, err := protocol.DecodeHello(frame)
	if err != nil {
		s.m.connRejHello.Inc()
		return
	}
	if hello.Freshness != s.cfg.Freshness || hello.Auth != s.cfg.Auth {
		s.m.connRejPolicy.Inc()
		return
	}
	// Cluster mode: serve only owned devices. A non-owner answers the
	// hello with a redirect naming the owner and closes — the redirect
	// contract in PROTOCOL.md — so device state never splits across
	// daemons.
	if s.cl != nil {
		if owner, redirect := s.cl.Route(hello.DeviceID); redirect {
			_ = tc.Send(cluster.EncodeRedirect(owner.Name, owner.Addr))
			s.m.redirects.Inc()
			return
		}
	}
	dev, err := s.device(hello.DeviceID)
	if err != nil {
		if errors.Is(err, errDeviceTableFull) {
			s.m.connRejDeviceFull.Inc()
		} else {
			s.m.connRejDeviceNew.Inc()
		}
		return
	}
	s.m.connsAccepted.Inc()

	stop := make(chan struct{})
	defer close(stop)
	// The issue goroutine is wg-tracked so Close/Shutdown do not return
	// while it is mid-send. The Add races no Wait: it happens under the
	// handler's own wg slot, which Close is still waiting on.
	s.wg.Add(1)
	go func() { defer s.wg.Done(); s.issueLoop(dev, tc, stop) }()
	// The gateway device's connection additionally carries the swarm
	// aggregation schedule: the whole fleet's collective evidence flows
	// through this one socket.
	if sc := s.swarm; sc != nil && hello.DeviceID == sc.gateway {
		s.wg.Add(1)
		go func() { defer s.wg.Done(); s.swarmLoop(tc, stop) }()
	}

	// Re-resolve the tier with the hello's advertised class (server-side
	// ID rules still win inside resolve) and draw this connection's
	// budget from it — tier placement happens once per session, never on
	// the serving path, which reads the placement once per socket read.
	dev.setTier(s.tiers.resolve(hello.DeviceID, hello.Tier))

	g := gateTally{lat: s.m.gateLat.Tally()}
	defer s.publish(&g)
	bucket := dev.tier.Load().connBucketAt(monoNow())
	for {
		// The frames alias the connection's read buffer: every handler
		// below either decodes into value types or copies what it keeps, so
		// nothing aliases the buffer past serveRead's return.
		batch, err := tc.RecvBatch()
		if err != nil {
			// A deadline expiry here means the peer completed no frame for
			// a whole ReadTimeout: the post-hello slow-loris. The return
			// evicts it (dropConn closes the socket).
			if transport.IsTimeout(err) {
				s.m.evictReadStall.Inc()
			}
			return
		}
		s.serveRead(&g, dev, bucket, batch)
	}
}

// serveRead serves the frames of one socket read and publishes g; conn is
// the connection's bucket (nil = uncapped). The gate clock is two
// monotonic readings per read. The first, taken after any wait for the
// read (the peer's time, not the gate's), resolves the admission chain
// (chainAt) and admits every frame of the read, so a tier retune or move
// reaches the connection at its next read, and an uncapped chain costs a
// frame nothing. The second is taken after the last frame. Each reject is
// one attestd_gate_seconds sample of the read's serve time divided by its
// frame count, so the samples number the rejects exactly and sum to at
// most the time spent serving them.
func (s *Server) serveRead(g *gateTally, dev *deviceState, conn *tokenBucket, batch transport.Batch) {
	start := monoNow()
	c := s.chainAt(g, dev, conn, start)
	capped := c.conn != nil || c.tier != nil || c.daemon != nil
	var frames, rejects uint64
	for frame, ok := batch.Next(); ok; frame, ok = batch.Next() {
		cause := causeNone
		if capped {
			cause = c.refusal()
		}
		if cause == causeNone {
			cause = s.handleFrame(dev, frame)
		}
		g.frames[cause]++
		if cause != causeNone {
			rejects++
		}
		frames++
	}
	g.lat.ObserveN((monoNow()-start)/time.Duration(frames), rejects)
	s.publish(g)
}

// chain is a read's admission chain: the connection's bucket, then the
// device tier's, then the daemon's, each nil when uncapped. The tier's
// follows the connection's so that one hostile connection dies at its own
// bucket before it drains the budget its whole class shares.
type chain struct {
	now          time.Duration
	conn         *tokenBucket
	tier, daemon *lockedBucket
}

// chainAt resolves a read's chain at reading now. When dev has moved tiers
// since g's last read, it publishes g first: a tally holds one tier's
// admissions at a time.
func (s *Server) chainAt(g *gateTally, dev *deviceState, conn *tokenBucket, now time.Duration) chain {
	tr := dev.tier.Load()
	if tr != g.tier {
		s.publish(g)
		g.tier = tr
	}
	return chain{now: now, conn: conn, tier: tr.bucket.Load(), daemon: s.dBucket}
}

// refusal asks the capped buckets, in order, for one frame's token and
// returns the first refusal's cause, or causeNone.
func (c *chain) refusal() rejectCause {
	if c.conn != nil && !c.conn.allow(c.now) {
		return causeRateLimited
	}
	if c.tier != nil && !c.tier.allow(c.now) {
		return causeTierLimited
	}
	if c.daemon != nil && !c.daemon.allow(c.now) {
		return causeDaemonRate
	}
	return causeNone
}

// gateTally is what one serve loop has counted since it last published:
// its frames by outcome, the tier they were admitted against, and its
// attestd_gate_seconds samples, all in plain integers on the loop's own
// goroutine. publish adds the tally to the shared series with one atomic
// add per touched series. The loop publishes after each socket read's
// batch of frames and when its connection ends, so every series is exact
// whenever the connection waits on its socket and lags by at most one
// read while it is busy. The zero value is ready to use; it keeps no gate
// samples.
type gateTally struct {
	frames [numCauses]uint64 // by outcome; frames[causeNone] were accepted
	tier   *tier             // the tier every frame past the connection's bucket met
	lat    obs.HistogramTally
}

// publish adds g to the shared series and empties it. attestd_frames_total
// goes last, so a reader that sees a frame counted there also sees its
// outcome.
func (s *Server) publish(g *gateTally) {
	var frames uint64
	for c, n := range g.frames {
		if n != 0 && rejectCause(c) != causeNone {
			s.m.rejects[c].Add(n)
		}
		frames += n
	}
	if frames == 0 {
		return
	}
	if tr := g.tier; tr != nil {
		limited := g.frames[causeTierLimited]
		if limited != 0 {
			tr.limited.Add(limited)
		}
		if admitted := frames - g.frames[causeRateLimited] - limited - g.frames[causeDaemonRate]; admitted != 0 {
			tr.admitted.Add(admitted)
		}
	}
	g.lat.Flush()
	clear(g.frames[:])
	s.m.framesIn.Add(frames)
}

// handleFrame classifies and dispatches one frame that passed admission
// (see serveRead) and returns why it died at the gate — a malformed or
// unknown frame, an unsolicited response, a mismatched measurement — or
// causeNone for an accepted frame. It must stay allocation-free for
// frames that die at the gate (unknown, malformed, unsolicited): a hostile
// peer chooses how often those branches run. frame is only valid for the
// duration of the call.
func (s *Server) handleFrame(dev *deviceState, frame []byte) rejectCause {
	switch protocol.ClassifyFrame(frame) {
	case protocol.FrameAttResp:
		return s.onAttResp(dev, frame)
	case protocol.FrameCommandResp:
		return s.onCommandResp(dev, frame)
	case protocol.FrameStats:
		return s.onStats(dev, frame)
	case protocol.FrameSwarmResp:
		return s.onSwarmResp(dev, frame)
	}
	return causeUnknownKind
}

func (s *Server) onAttResp(dev *deviceState, frame []byte) rejectCause {
	// The strict checks first, then the nonce alone: a nonce above every
	// nonce the device was issued, what a blind flooder sends, is refused
	// before any other field is decoded and without the device's lock.
	// Otherwise the response is decoded outside the lock (into a stack
	// value, no allocation), and the lock covers only the pending-map
	// lookup, the memoized measurement compare and the retire. No closure:
	// this path runs once per inbound response frame, hostile or not.
	nonce, err := protocol.AttRespNonce(frame)
	if err != nil {
		return causeMalformedResponse
	}
	if dev.v.Unissued(nonce) {
		return causeUnsolicited
	}
	var resp protocol.AttResp
	if err := protocol.DecodeAttRespInto(frame, &resp); err != nil {
		return causeMalformedResponse
	}
	mu := &dev.mu
	mu.Lock()
	// A refused answer leaves its request pending, with its in-flight
	// slot: hellos are unauthenticated, so the refusal may be a forgery
	// from another session naming the device, and the device's genuine
	// answer must still be accepted. The refusal only ends the issue
	// loop's wait on the request (see issueOne).
	issuedAt, err := dev.v.CheckStamped(&resp)
	mu.Unlock()
	switch {
	case err == nil:
		// The round is timed from its own request's issue stamp, and timed
		// before it is counted: a reader that sees it accepted sees its
		// sample too.
		s.m.attestLat.Observe(monoNow() - time.Duration(issuedAt))
		s.m.responsesAccepted.Inc()
		if resp.Fast {
			s.m.responsesFast.Inc()
		}
		if !resp.Fast {
			// An accepted *full* measurement may have re-armed the fast
			// record; replicate so a failover successor knows it too, and
			// journal it so a restarted daemon re-arms instead of demanding
			// a spurious full MAC.
			if s.cl != nil {
				s.cl.Replicate(dev.id)
			}
			if s.persist != nil {
				s.persist.MarkDirty(dev.id)
			}
		}
		s.releaseInflight()
		return causeNone
	case err == protocol.ErrUnsolicited:
		return causeUnsolicited
	case err == protocol.ErrFastMismatch:
		// A fast response that failed the digest/epoch record check. The
		// verifier has dropped its fast state, so the device's next
		// request demands — and its deviation is caught by — the full MAC.
		return causeFastMismatch
	default:
		return causeBadMeasurement
	}
}

func (s *Server) onCommandResp(dev *deviceState, frame []byte) rejectCause {
	// As onAttResp: decode outside the lock into a stack value whose body
	// and tag alias the frame, then a lock without a closure. The verifier
	// looks the nonce up before any MAC work, so an unsolicited frame
	// costs no allocation.
	var resp protocol.CommandResp
	if err := protocol.DecodeCommandRespInto(frame, &resp); err != nil {
		return causeCommandRejected
	}
	mu := &dev.mu
	mu.Lock()
	err := dev.v.CheckDecodedCommandResponse(&resp)
	mu.Unlock()
	switch err {
	case nil:
		s.m.responsesAccepted.Inc()
		s.releaseInflight()
		return causeNone
	case protocol.ErrUnsolicited:
		return causeUnsolicited
	default:
		return causeCommandRejected
	}
}

func (s *Server) onStats(dev *deviceState, frame []byte) rejectCause {
	// Decode into a stack value outside the lock, then copy it in.
	var st protocol.StatsReport
	if err := protocol.DecodeStatsReportInto(frame, &st); err != nil {
		// A frame that classified as stats but fails strict decode is a
		// malformed frame, not an unknown kind — distinct cause, distinct
		// series.
		return causeMalformedStats
	}
	s.m.statsReports.Inc()
	dev.mu.Lock()
	if dev.haveLast && st.Regressed(&dev.lastStats) {
		// The device's cumulative counters went backwards: it rebooted and
		// restarted from zero. Fold the dying epoch's final snapshot into
		// the high-water base so fleet aggregates stay monotonic.
		dev.statsBase.Accumulate(&dev.lastStats)
		dev.statsEpochs++
		s.m.statsEpochs.Inc()
	}
	dev.lastStats, dev.haveLast = st, true
	dev.mu.Unlock()
	if s.persist != nil {
		// Stats ride the same snapshot records as freshness state; keeping
		// them journaled keeps fleet aggregates monotone across restarts.
		s.persist.MarkDirty(dev.id)
	}
	return causeNone
}

func (s *Server) acquireInflight() bool {
	if s.inflight.Add(1) > int64(s.cfg.MaxInflight) {
		s.inflight.Add(-1)
		return false
	}
	return true
}

func (s *Server) releaseInflight() { s.inflight.Add(-1) }

// maxCatchUp bounds how many overdue rounds one wake of the issue loop
// sends; rounds older than those are skipped, so a long stall ends in at
// most maxCatchUp requests, not one per period missed. A loop on a shared
// 2-vCPU guest, at a 1 ms period, saw its requests reach the prover with
// a 7.7 ms 99th-percentile gap during a slow spell, and lost 11% of its
// rounds with a bound of 2.
const maxCatchUp = 8

// maxSessionPending bounds the requests one session may have outstanding.
// Hellos are unauthenticated, so without it a session that never answers
// holds a slot for every tick of a RequestTimeout, and a few such
// sessions take every MaxInflight slot. It is twice maxCatchUp, so a
// catch-up burst behind a full pipeline is never refused.
const maxSessionPending = 2 * maxCatchUp

// sentReq is one request a session sent and the monotonic reading
// (monoNow) at which it expires.
type sentReq struct {
	nonce    uint64
	deadline time.Duration
}

// sessionWindow is one session's issue state: the requests it sent that
// may still be pending, oldest first, the nonce of the last one sent, and
// the buffer requests are encoded into (Conn.Send copies it). Only the
// session's issue loop touches it; the verifier it is checked against is
// read under the device's lock.
type sessionWindow struct {
	sent  [maxSessionPending]sentReq
	n     int
	last  uint64
	frame []byte
}

// sessionEnded is the reading at which every request of an ended session
// has expired: no answer can arrive on a closed connection.
const sessionEnded = time.Duration(math.MaxInt64)

// retireLocked drops the window's requests that are no longer pending and
// abandons those whose deadline is at or before now, keeping the rest in
// order. It returns how many it abandoned, whose in-flight slots the
// caller releases (see retired). The caller holds the device's lock.
func (w *sessionWindow) retireLocked(v *protocol.Verifier, now time.Duration) (abandoned int64) {
	kept := 0
	for _, r := range w.sent[:w.n] {
		switch {
		case r.deadline <= now:
			if v.Abandon(r.nonce) {
				abandoned++
			}
		case v.IsPending(r.nonce):
			w.sent[kept] = r
			kept++
		}
	}
	w.n = kept
	return abandoned
}

// retired counts n requests abandoned unanswered and releases their
// in-flight slots.
func (s *Server) retired(n int64) {
	if n > 0 {
		s.m.requestsAbandoned.Add(uint64(n))
		s.inflight.Add(-n)
	}
}

// sweep retires the window's answered and expired requests at reading
// now, without issuing.
func (s *Server) sweep(dev *deviceState, w *sessionWindow, now time.Duration) {
	dev.mu.Lock()
	n := w.retireLocked(dev.v, now)
	dev.mu.Unlock()
	s.retired(n)
}

// issueOne retires the session's answered and expired requests, then
// signs and sends the next request for dev, all under one hold of the
// device's lock. The tick sends nothing, and counts as deferred, while
// the session has maxSessionPending requests outstanding or while the
// device is still measuring the last one as a full request
// (protocol.Verifier.MeasuringFull). Both waits are per connection, so
// requests sent on another session naming the device — a mute one, or a
// stale one left by a reconnect — hold only that session. A draining
// daemon only retires. issueOne reports false when the connection is
// dead.
func (s *Server) issueOne(dev *deviceState, tc *transport.Conn, w *sessionWindow) bool {
	now := monoNow()
	var gone, deferred, throttled, issued bool
	dev.mu.Lock()
	abandoned := w.retireLocked(dev.v, now)
	switch {
	case s.draining.Load():
		// Draining: commit to no new verdicts.
	case dev.handedOff:
		// A peer daemon took this device's freshness state; issuing here
		// would consume counters the new owner also issues. The false
		// return tears the session down and the device redials its way to
		// the owner.
		gone = true
	case w.n == len(w.sent) || dev.v.MeasuringFull(w.last):
		// A full window waits for an answer or an expiry. A device still
		// computing the full MAC the fast path waits for would only be
		// asked for one more: on a schedule shorter than the device's
		// measurement the newest full request would never be the one
		// verified.
		deferred = true
	case !s.acquireInflight():
		throttled = true
	default:
		frame, nonce, err := dev.v.Issue(w.frame[:0], int64(now))
		if err != nil {
			s.releaseInflight()
			break
		}
		w.frame = frame
		w.sent[w.n] = sentReq{nonce: nonce, deadline: now + s.cfg.RequestTimeout}
		w.n++
		w.last = nonce
		issued = true
	}
	dev.mu.Unlock()
	s.retired(abandoned)
	switch {
	case gone:
		return false
	case deferred:
		s.m.issueDeferred.Inc()
		return true
	case throttled:
		s.m.inflightThrottled.Inc()
		return true // cap pressure is not a connection failure
	case !issued:
		return true
	}
	if s.persist != nil {
		// Make the consumed counter durable before it can reach the wire:
		// under fsync=always this blocks on the journal fsync (the
		// write-ahead barrier behind exact restart adoption), under lazier
		// policies it is a coalescing dirty mark.
		s.persist.persistIssue(dev)
	}
	if err := tc.Send(w.frame); err != nil {
		// The request is on no wire: retire it at once, uncounted, as it
		// was never issued. A deadline expiry means the peer stopped
		// draining its socket — the write-side slow-loris — and the false
		// return evicts it.
		if transport.IsTimeout(err) {
			s.m.evictWriteStall.Inc()
		}
		w.n--
		dev.mu.Lock()
		retired := dev.v.Abandon(w.last)
		dev.mu.Unlock()
		if retired {
			s.releaseInflight()
		}
		return false
	}
	s.m.requestsIssued.Inc()
	if s.cl != nil {
		// The counter stream just advanced: mark the device dirty so the
		// pusher replicates a fresh snapshot to its ring successor. An
		// enqueue only — no I/O on the issue path.
		s.cl.Replicate(dev.id)
	}
	return true
}

// dueRounds is the issue loop's schedule: round k is due AttestEvery·k
// (period·k) after the loop starts, and rounds before next have been
// handled. At elapsed since the start it returns how many rounds to send
// now — the overdue ones, at most maxCatchUp — and the first round not
// yet due, which the loop sleeps until.
func dueRounds(next int64, elapsed, period time.Duration) (send int, upcoming int64) {
	due := int64(elapsed/period) + 1 // rounds 0 .. due-1 are due
	if due <= next {
		return 0, next
	}
	return int(min(due-next, maxCatchUp)), due
}

// issueLoop drives the honest attestation schedule for one connection,
// on a fixed grid (dueRounds): a wake that comes late still sends the
// round it is late for, so the rounds sent keep pace with the period
// instead of losing a tick to every late wake. Its one timer wakes it at
// the earlier of the next round and the deadline of its oldest pending
// request, so a request expires on time even when AttestEvery exceeds
// RequestTimeout. Once the daemon drains, the loop stops issuing and
// keeps retiring until nothing it sent is pending, so Shutdown's wait on
// the in-flight count ends. When the session ends, the loop retires
// whatever it still has pending. A failed send closes the transport so
// the read loop unblocks and the connection is torn down as one unit,
// not half-dead.
func (s *Server) issueLoop(dev *deviceState, tc *transport.Conn, stop <-chan struct{}) {
	period := s.cfg.AttestEvery
	start := monoNow()
	timer := time.NewTimer(period)
	defer timer.Stop()
	var w sessionWindow
	defer s.sweep(dev, &w, sessionEnded)
	drain := s.drainCh
	send, next := 1, int64(1) // round 0 is due now
	for {
		if send == 0 {
			s.sweep(dev, &w, monoNow())
		}
		for ; send > 0; send-- {
			if !s.issueOne(dev, tc, &w) {
				tc.Close()
				return
			}
		}
		wake := start + time.Duration(next)*period
		if drain == nil {
			if w.n == 0 {
				return
			}
			wake = w.sent[0].deadline
		} else if w.n > 0 {
			wake = min(wake, w.sent[0].deadline)
		}
		// Stop and drain before Reset: under the pre-1.23 timer semantics
		// go.mod selects, a timer that fired while another case won still
		// holds its tick.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wake - monoNow())
		select {
		case <-stop:
			return
		case <-drain:
			drain = nil
		case <-dev.kick:
			// Admin force-reattest (or evict): run an immediate round
			// instead of waiting out the tick — issueOne either demands
			// the fresh full MAC now or notices the handed-off husk and
			// tears the session down. The grid stays where it was.
			send = 1
		case <-timer.C:
			if drain != nil {
				send, next = dueRounds(next, monoNow()-start, period)
			}
		}
	}
}

// String summarises the counters for log lines.
func (c Counters) String() string {
	return fmt.Sprintf(
		"conns=%d/%d frames=%d ratelimited=%d issued=%d accepted=%d rejected=%d (malformed=%d mismatched=%d) unsolicited=%d abandoned=%d stats=%d epochs=%d",
		c.ConnsAccepted, c.ConnsRejected, c.FramesIn, c.RateLimited,
		c.RequestsIssued, c.ResponsesAccepted, c.ResponsesRejected,
		c.ResponsesMalformed, c.ResponsesMismatched,
		c.ResponsesUnsolicited, c.RequestsAbandoned,
		c.StatsReports, c.StatsEpochs)
}
