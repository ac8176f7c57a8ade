// Command attest-loadgen drives a verifier daemon (attestd) with fleet
// traffic over real TCP: N device connections, each answering the daemon's
// attestation requests authentically (the measurement is computed directly
// over the golden image — no simulated MCU, so one host can stand in for
// thousands of provers) while pumping M adversarial frames per second at
// the daemon's serving gate (unsolicited forged responses and malformed
// junk, the frames a hostile peer can emit at line rate).
//
// With no -addr the tool starts an in-process attestd on a loopback TCP
// port, which additionally lets it report the daemon's counters and the
// process-wide allocations per generated frame — the regression signal the
// zero-allocation hot path is held to. The run summary is printed as JSON
// and, with -out, written as BENCH_server.json (see `make bench-server`).
//
//	attest-loadgen -devices 8 -rate 200 -duration 3s -out BENCH_server.json
//	attest-loadgen -addr 10.0.0.7:7950 -devices 64 -rate 50 -duration 30s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"proverattest/internal/agent"
	"proverattest/internal/core"
	"proverattest/internal/crypto/cost"
	"proverattest/internal/faultnet"
	"proverattest/internal/obs"
	"proverattest/internal/protocol"
	"proverattest/internal/server"
	"proverattest/internal/transport"
)

type benchServer struct {
	Bench           string `json:"bench"`
	Freshness       string `json:"freshness"`
	Auth            string `json:"auth"`
	Transport       string `json:"transport"`
	InProcessServer bool   `json:"in_process_server"`

	Devices     int     `json:"devices"`
	DurationSec float64 `json:"duration_sec"`

	AdversarialRatePerDevice float64 `json:"adversarial_rate_per_device"`
	AdversarialFramesSent    int64   `json:"adversarial_frames_sent"`
	FramesPerSec             float64 `json:"frames_per_sec"`

	// Adversarial-frame admission latency: wall time for one paced frame's
	// Send to complete. TCP backpressure folds the daemon's read rate into
	// these percentiles — they grow when the serving path saturates.
	AdversarialSendNsP50 int64 `json:"adversarial_send_ns_p50"`
	AdversarialSendNsP95 int64 `json:"adversarial_send_ns_p95"`
	AdversarialSendNsP99 int64 `json:"adversarial_send_ns_p99"`

	// Authentic-round service latency: receipt of the daemon's request to
	// completion of the measured response's write (includes the golden-
	// image MAC, the prover-side cost of an honest round).
	AuthenticRounds       int64 `json:"authentic_rounds"`
	AuthenticRoundNsPerOp int64 `json:"authentic_round_ns_per_op"`
	AuthenticRoundNsP50   int64 `json:"authentic_round_ns_p50"`
	AuthenticRoundNsP95   int64 `json:"authentic_round_ns_p95"`
	AuthenticRoundNsP99   int64 `json:"authentic_round_ns_p99"`

	// AsymmetryRatio is the §3.1 read-out at serving scale: what one
	// authentic round costs versus one adversarial frame (client-observed
	// means). The gate exists to keep the right side cheap.
	AsymmetryRatio int64 `json:"asymmetry_ratio"`

	// Quiescent-fleet read-out (-quiescent): devices answer through a
	// FastResponder, so after each device's first full measurement every
	// round rides the O(1) fast path. FullRound* samples every full-MAC
	// round of the run (warm-up included — in a quiescent fleet the
	// measured phase alone may never pay the full MAC again), FastRound*
	// samples the measured phase's fast rounds, and QuiescentSpeedup is
	// mean(full)/mean(fast): the RATA claim, client-observed.
	//
	// QuiescentModelSpeedup prices the same rounds in the paper's
	// currency: each answer is charged the cycles the simulated anchor
	// charges for it (internal/crypto/cost, the MSP430 at 24 MHz), an HMAC
	// over the signed request and the measured memory for a full answer,
	// over FastMACMessageLen bytes for a fast one, and the field is
	// mean(full)/mean(fast) of those charges. -min-speedup gates it:
	// QuiescentSpeedup pits a host SHA-1 over 512 KiB against a socket
	// send, so it moves with the host's hash speed.
	Quiescent             bool    `json:"quiescent,omitempty"`
	FastRounds            int64   `json:"fast_rounds,omitempty"`
	FullRounds            int64   `json:"full_rounds,omitempty"`
	FastRoundNsPerOp      int64   `json:"fast_round_ns_per_op,omitempty"`
	FastRoundNsP50        int64   `json:"fast_round_ns_p50,omitempty"`
	FastRoundNsP95        int64   `json:"fast_round_ns_p95,omitempty"`
	FastRoundNsP99        int64   `json:"fast_round_ns_p99,omitempty"`
	FullRoundNsPerOp      int64   `json:"full_round_ns_per_op,omitempty"`
	QuiescentSpeedup      float64 `json:"quiescent_speedup,omitempty"`
	QuiescentModelSpeedup float64 `json:"quiescent_model_speedup,omitempty"`
	ServerResponsesFast   uint64  `json:"server_responses_fast,omitempty"`

	// AllocsPerFrame is the process-wide heap objects allocated per
	// generated frame (loadgen + in-process daemon; -1 when the daemon is
	// external). The pooled codec keeps this near zero in steady state.
	AllocsPerFrame float64 `json:"allocs_per_frame"`

	// Live /metrics-derived read-out, scraped mid-run from the daemon's
	// exposition endpoint (in-process or -scrape URL; MetricsScrapes == 0
	// when nothing was scraped). The histogram means are the daemon's own
	// clock on the asymmetry — what a gate reject costs it versus an
	// honest issue-to-accept round — independent of the client-observed
	// AsymmetryRatio above. The *PerSec rates come from first→last scrape
	// deltas over the traffic phase.
	MetricsScrapes     int     `json:"metrics_scrapes"`
	LiveGateNsMean     float64 `json:"live_gate_ns_mean"`
	LiveAttestNsMean   float64 `json:"live_attest_ns_mean"`
	LiveAsymmetryRatio float64 `json:"live_asymmetry_ratio"`
	LiveRejectsPerSec  float64 `json:"live_rejects_per_sec"`
	LiveFramesInPerSec float64 `json:"live_frames_in_per_sec"`

	// In-process daemon counters (zero when external).
	ServerFramesIn    uint64 `json:"server_frames_in"`
	ServerAccepted    uint64 `json:"server_responses_accepted"`
	ServerUnsolicited uint64 `json:"server_responses_unsolicited"`
	ServerUnknown     uint64 `json:"server_unknown_frames"`
	ServerRateLimited uint64 `json:"server_rate_limited"`
	ServerIssued      uint64 `json:"server_requests_issued"`

	// Chaos-mode survival read-out (-chaos): the fleet runs over faultnet
	// fault injection with supervised reconnect loops, then the faults
	// stop and every device gets a recovery window. SurvivalRate is the
	// fraction of devices that completed a fresh authentic round on a
	// clean link after the chaos phase — the tentpole's 100% target.
	Chaos             bool    `json:"chaos"`
	ChaosSchedule     string  `json:"chaos_schedule,omitempty"`
	ChaosSeed         int64   `json:"chaos_seed,omitempty"`
	ChaosSessions     int64   `json:"chaos_sessions,omitempty"`
	ChaosReconnects   int64   `json:"chaos_reconnects,omitempty"`
	ChaosDialErrors   int64   `json:"chaos_dial_errors,omitempty"`
	ChaosFaults       uint64  `json:"chaos_faults_injected,omitempty"`
	ChaosResets       uint64  `json:"chaos_fault_resets,omitempty"`
	ChaosDrops        uint64  `json:"chaos_fault_drops,omitempty"`
	ChaosCorruptions  uint64  `json:"chaos_fault_corruptions,omitempty"`
	ChaosShortWrites  uint64  `json:"chaos_fault_short_writes,omitempty"`
	ChaosDelays       uint64  `json:"chaos_fault_delays,omitempty"`
	ChaosRateStalls   uint64  `json:"chaos_fault_rate_stalls,omitempty"`
	ChaosSurvivors    int     `json:"chaos_survivors,omitempty"`
	ChaosSurvivalRate float64 `json:"chaos_survival_rate,omitempty"`
}

// device is one loadgen connection: an authentic responder plus an
// adversarial frame pump sharing a socket.
type device struct {
	id     string
	key    [20]byte
	golden []byte
	tc     *transport.Conn

	// fast, when non-nil (-quiescent), answers requests through the
	// RATA-style fast-path state machine instead of re-MACing the golden
	// image per round.
	fast *protocol.FastResponder

	mu          sync.Mutex
	sendNs      []int64     // adversarial frame admission latencies
	roundNs     []int64     // authentic round service latencies
	fastNs      []int64     // fast-path round latencies (subset of roundNs)
	fullNs      []int64     // full-MAC round latencies, never reset (baseline)
	fastCycles  cost.Cycles // modelled prover cycles of the rounds in fastNs
	fullCycles  cost.Cycles // modelled prover cycles of the rounds in fullNs
	framesSent  int64
	roundsServd int64

	// Chaos-mode supervision counters and the cumulative injected-fault
	// totals of every session's faultnet wrapper.
	sessions   int64
	reconnects int64
	dialErrors int64
	faults     faultnet.StatsSnapshot
}

// serveReads answers every attestation request authentically until the
// connection dies. Runs as the connection's single reader.
func (d *device) serveReads() { d.serveConn(context.Background(), d.tc) }

// serveConn is serveReads over an explicit connection: the chaos
// supervisor hands each session's connection in and bounds it with ctx.
func (d *device) serveConn(ctx context.Context, tc *transport.Conn) {
	var respBuf []byte
	for {
		frame, err := tc.RecvShared()
		if err != nil {
			if transport.IsTimeout(err) {
				if ctx.Err() != nil {
					return
				}
				continue
			}
			return
		}
		if protocol.ClassifyFrame(frame) != protocol.FrameAttReq {
			continue
		}
		t0 := time.Now()
		req, err := protocol.DecodeAttReq(frame)
		if err != nil {
			continue
		}
		var resp protocol.AttResp
		fast := false
		if d.fast != nil {
			fast = d.fast.RespondInto(req, &resp)
		} else {
			resp = protocol.AttResp{
				Nonce:       req.Nonce,
				Counter:     req.Counter,
				Measurement: protocol.Measure(d.key[:], req, d.golden),
			}
		}
		respBuf = resp.AppendEncode(respBuf[:0])
		if err := tc.Send(respBuf); err != nil {
			return
		}
		ns := time.Since(t0).Nanoseconds()
		d.mu.Lock()
		d.roundNs = append(d.roundNs, ns)
		d.roundsServd++
		if d.fast != nil {
			if fast {
				d.fastNs = append(d.fastNs, ns)
				d.fastCycles += cost.HMACSHA1(protocol.FastMACMessageLen)
			} else {
				d.fullNs = append(d.fullNs, ns)
				d.fullCycles += cost.HMACSHA1(len(req.SignedBytes()) + len(d.golden))
			}
		}
		d.mu.Unlock()
	}
}

// pumpAdversarial pushes paced hostile frames until the deadline:
// alternating well-formed responses answering no outstanding nonce (the
// daemon's decode → map-miss → static-reject path) and malformed junk (the
// classify-reject path).
func (d *device) pumpAdversarial(rate float64, deadline time.Time) {
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	var buf []byte
	junk := []byte{0x41, 0x50, 0xFF, 0x00, 0x00} // response magic, bogus version
	next := time.Now()
	for n := uint64(0); time.Now().Before(deadline); n++ {
		if n%2 == 0 {
			forged := protocol.AttResp{Nonce: 3_000_000_019 + n, Counter: n}
			buf = forged.AppendEncode(buf[:0])
		} else {
			buf = append(buf[:0], junk...)
		}
		t0 := time.Now()
		if err := d.tc.Send(buf); err != nil {
			return
		}
		ns := time.Since(t0).Nanoseconds()
		d.mu.Lock()
		d.sendNs = append(d.sendNs, ns)
		d.framesSent++
		d.mu.Unlock()
		if interval > 0 {
			next = next.Add(interval)
			if sleep := time.Until(next); sleep > 0 {
				time.Sleep(sleep)
			}
		}
	}
}

// runChaos is one device's supervised session loop, the loadgen twin of
// agent.Agent.Run: dial, wrap the connection in the fault schedule
// (while chaosOn holds), serve authentically until the session dies,
// bank the injected-fault counts, back off, reconnect. Each session's
// fault stream is seeded deterministically from the run seed, the
// device index and the session ordinal, so a chaos run replays exactly.
func (d *device) runChaos(ctx context.Context, target string, hello []byte, sched *faultnet.Schedule, seed int64, chaosOn *atomic.Bool, bo agent.Backoff) {
	bt := agent.NewBackoffTimer(bo)
	for session := int64(0); ctx.Err() == nil; session++ {
		var dialer net.Dialer
		nc, err := dialer.DialContext(ctx, "tcp", target)
		if err != nil {
			d.mu.Lock()
			d.dialErrors++
			d.mu.Unlock()
			if !sleepCtx(ctx, bt.Next()) {
				return
			}
			continue
		}
		conn := net.Conn(nc)
		var fc *faultnet.Conn
		if chaosOn.Load() {
			fc = faultnet.Wrap(nc, sched, faultnet.Options{Seed: seed + session})
			conn = fc
		}
		tc := transport.NewConn(conn, transport.Options{
			ReadTimeout:  250 * time.Millisecond,
			WriteTimeout: 10 * time.Second,
		})
		d.mu.Lock()
		d.tc = tc
		d.sessions++
		d.mu.Unlock()
		started := time.Now()
		if err := tc.Send(hello); err == nil {
			d.serveConn(ctx, tc)
		}
		tc.Close()
		if fc != nil {
			snap := fc.Stats().Snapshot()
			d.mu.Lock()
			d.faults.Resets += snap.Resets
			d.faults.Drops += snap.Drops
			d.faults.Corruptions += snap.Corruptions
			d.faults.ShortWrites += snap.ShortWrites
			d.faults.Delays += snap.Delays
			d.faults.RateStalls += snap.RateStalls
			d.mu.Unlock()
		}
		if ctx.Err() != nil {
			return
		}
		if time.Since(started) >= bt.ResetAfter() {
			bt.Reset()
		}
		d.mu.Lock()
		d.reconnects++
		d.mu.Unlock()
		if !sleepCtx(ctx, bt.Next()) {
			return
		}
	}
}

// sleepCtx sleeps d or returns false early if ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// percentile is the nearest-rank q-quantile of an ascending-sorted
// sample: the smallest element with at least ceil(q·n) values at or below
// it. (The previous int(q·n) truncation picked the rank *after* the
// nearest rank whenever q·n was integral — at q=0.5 over four samples it
// returned the 3rd value, not the 2nd.)
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func mean(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return sum / int64(len(xs))
}

func main() {
	log.SetFlags(0)
	var (
		addr      = flag.String("addr", "", "attestd address; empty starts an in-process daemon on a loopback port")
		devices   = flag.Int("devices", 8, "concurrent device connections")
		rate      = flag.Float64("rate", 200, "adversarial frames/s per device (0 = unpaced)")
		duration  = flag.Duration("duration", 3*time.Second, "traffic phase length")
		master    = flag.String("master", "proverattest-fleet-master", "master secret (must match the daemon)")
		freshName = flag.String("freshness", "counter", "freshness policy: none | nonces | counter")
		authName  = flag.String("auth", "hmac-sha1", "request auth scheme (must match the daemon)")
		attEvery  = flag.Duration("attest-every", 100*time.Millisecond, "in-process daemon's per-device attestation period")
		connRate  = flag.Float64("conn-rate", 0, "in-process daemon's per-connection frames/s budget (0 = unlimited)")
		out       = flag.String("out", "", "also write the JSON summary to this file (BENCH_server.json)")
		variant   = flag.String("variant", "", "merge the summary under this key in a variant map in -out instead of overwriting the file (a flat legacy file is folded in as \"baseline\")")

		quiescent  = flag.Bool("quiescent", false, "quiescent fleet: devices answer via the RATA fast-path responder and the adversarial pump is off; the in-process daemon grants the fast path")
		minSpeedup = flag.Float64("min-speedup", 0, "with -quiescent, fail unless a full round costs this many times a fast one in modelled prover cycles (0 = report only)")
		scrapeURL  = flag.String("scrape", "", "external daemon's /metrics URL to scrape mid-run, e.g. http://10.0.0.7:9150/metrics (in-process daemons are scraped automatically)")

		clusterMode = flag.Bool("cluster", false, "cluster mode: ladder of 1→2→4 in-process daemons sharing a consistent-hash ring, each flooded past its -daemon-rate admission budget; reports admitted frames/s per rung and the scaling ratios, then runs a kill-one failover drill")
		daemonRate  = flag.Float64("daemon-rate", 2000, "with -cluster, each daemon's admission budget in frames/s (server-side MaxRatePerSec)")
		minScale2   = flag.Float64("min-scale-2", 0, "with -cluster, fail unless 2-daemon admitted throughput reaches this multiple of 1-daemon (0 = report only)")
		minScale4   = flag.Float64("min-scale-4", 0, "with -cluster, fail unless 4-daemon admitted throughput reaches this multiple of 1-daemon (0 = report only)")

		swarmMode       = flag.Bool("swarm", false, "swarm mode: collective attestation through the spanning-tree gateway — -devices members, one socket, two frames per aggregate round; includes the crossover ladder and adversary matrix")
		fanout          = flag.Int("fanout", 4, "with -swarm, the spanning-tree arity")
		minMsgReduction = flag.Float64("min-msg-reduction", 0, "with -swarm, fail unless the measured verifier-message reduction reaches this factor (0 = report only)")

		restartDrill = flag.Bool("restart-drill", false, "restart drill: agents attest against a persistent in-process daemon that is killed (kill -9 semantics) and restarted from its state directory mid-traffic, once per fsync policy; any device-side freshness reject or allocating gate reject fails the run")

		tierIsolation = flag.Bool("tier-isolation", false, "tier-isolation drill: a bulk tier floods at -flood-x times its -tier-rate budget while an uncapped gold tier keeps attesting; fails if gold's authentic p99 moves past -max-p99-ratio")
		tierRate      = flag.Float64("tier-rate", 400, "with -tier-isolation, the bulk tier's tier-wide budget in frames/s")
		floodX        = flag.Float64("flood-x", 10, "with -tier-isolation, the flood intensity as a multiple of the bulk budget")
		maxP99Ratio   = flag.Float64("max-p99-ratio", 0, "with -tier-isolation, fail if gold's loaded p99 exceeds this multiple of its unloaded p99 (0 = report only)")

		chaos         = flag.Bool("chaos", false, "run the fleet over faultnet fault injection with supervised reconnects (disables the adversarial pump); survival stats land in the summary")
		chaosSchedule = flag.String("chaos-schedule", "flap=500ms:reset;pct=2:drop", "faultnet fault schedule applied to every device connection in -chaos mode")
		chaosSeed     = flag.Int64("chaos-seed", 1, "seed for the deterministic fault and backoff streams (per-device offsets applied); equal seeds replay equal runs")
	)
	flag.Parse()

	fresh, err := protocol.ParseFreshnessKind(*freshName)
	if err != nil {
		log.Fatalf("attest-loadgen: %v", err)
	}
	auth, err := protocol.ParseAuthKind(*authName)
	if err != nil {
		log.Fatalf("attest-loadgen: %v", err)
	}
	if *clusterMode {
		runCluster(clusterRunOpts{
			duration:  *duration,
			attEvery:  *attEvery,
			master:    *master,
			fresh:     fresh,
			auth:      auth,
			budget:    *daemonRate,
			out:       *out,
			variant:   *variant,
			minScale2: *minScale2,
			minScale4: *minScale4,
		})
		return
	}
	if *restartDrill {
		runPersist(persistRunOpts{
			devices:  *devices,
			attEvery: *attEvery,
			master:   *master,
			fresh:    fresh,
			auth:     auth,
			out:      *out,
			variant:  *variant,
		})
		return
	}
	if *tierIsolation {
		runTierIsolation(tierIsoOpts{
			devices:     *devices,
			duration:    *duration,
			attEvery:    *attEvery,
			master:      *master,
			fresh:       fresh,
			auth:        auth,
			bulkBudget:  *tierRate,
			floodX:      *floodX,
			maxP99Ratio: *maxP99Ratio,
			out:         *out,
			variant:     *variant,
		})
		return
	}
	if *swarmMode {
		runSwarm(swarmRunOpts{
			devices:         *devices,
			fanout:          *fanout,
			duration:        *duration,
			every:           *attEvery,
			master:          *master,
			fresh:           fresh,
			auth:            auth,
			out:             *out,
			variant:         *variant,
			minMsgReduction: *minMsgReduction,
		})
		return
	}
	golden := core.GoldenRAMPattern()

	// Spawn the in-process daemon unless pointed at an external one.
	var srv *server.Server
	target := *addr
	if target == "" {
		// Under chaos, requests lost to injected faults must release their
		// inflight slots fast, or the ghosts of the chaos phase starve the
		// recovery phase at the (deliberately small) inflight cap.
		var reqTimeout time.Duration
		if *chaos {
			reqTimeout = 500 * time.Millisecond
		}
		srv, err = server.New(server.Config{
			Freshness:         fresh,
			Auth:              auth,
			MasterSecret:      []byte(*master),
			Golden:            golden,
			AttestEvery:       *attEvery,
			MaxInflight:       4 * *devices,
			PerConnRatePerSec: *connRate,
			RequestTimeout:    reqTimeout,
			FastPath:          *quiescent,
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
		target = ln.Addr().String()
		log.Printf("attest-loadgen: in-process attestd on %s", target)
	}

	// Mid-run observability: scrape the daemon's /metrics during the
	// traffic phase. The in-process daemon gets a loopback exposition
	// endpoint of its own; an external daemon is scraped via -scrape.
	metricsURL := *scrapeURL
	if srv != nil {
		mln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("attest-loadgen: %v", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(srv.Metrics()))
		go http.Serve(mln, mux) //nolint:errcheck
		metricsURL = "http://" + mln.Addr().String() + "/metrics"
	}

	// Chaos mode: every device runs a supervised reconnect loop over a
	// fault-injecting wrapper instead of a single pristine connection.
	var (
		sched       *faultnet.Schedule
		chaosOn     atomic.Bool
		chaosCtx    context.Context
		chaosCancel context.CancelFunc = func() {}
	)
	if *chaos {
		sched, err = faultnet.ParseSchedule(*chaosSchedule)
		if err != nil {
			log.Fatalf("attest-loadgen: -chaos-schedule: %v", err)
		}
		chaosOn.Store(true)
		chaosCtx, chaosCancel = context.WithCancel(context.Background())
		log.Printf("attest-loadgen: chaos schedule %q seed %d", sched.String(), *chaosSeed)
	}
	defer chaosCancel()

	devs := make([]*device, *devices)
	for i := range devs {
		id := fmt.Sprintf("loadgen-%03d", i)
		d := &device{
			id:     id,
			key:    protocol.DeriveDeviceKey([]byte(*master), id),
			golden: golden,
			// Pre-size the sample slices so recording stays off the
			// traffic-phase allocation profile.
			sendNs:  make([]int64, 0, int(*rate*duration.Seconds())+1024),
			roundNs: make([]int64, 0, 1024),
		}
		if *quiescent {
			d.fast = protocol.NewFastResponder(d.key[:], golden)
			d.fastNs = make([]int64, 0, 1024)
			d.fullNs = make([]int64, 0, 64)
		}
		hello := &protocol.Hello{Freshness: fresh, Auth: auth, DeviceID: id}
		devs[i] = d
		if *chaos {
			// Sessions of device i get fault seeds in their own stride so
			// no two devices (or sessions) share a fault stream.
			go d.runChaos(chaosCtx, target, hello.Encode(), sched,
				*chaosSeed+int64(i)*1_000_003, &chaosOn,
				agent.Backoff{
					Base: 50 * time.Millisecond, Max: time.Second,
					Jitter: 0.2, ResetAfter: 2 * time.Second,
					Seed: *chaosSeed + int64(i),
				})
			continue
		}
		nc, err := net.Dial("tcp", target)
		if err != nil {
			log.Fatalf("attest-loadgen: dialing %s: %v", target, err)
		}
		d.tc = transport.NewConn(nc, transport.Options{
			ReadTimeout:  250 * time.Millisecond,
			WriteTimeout: 10 * time.Second,
		})
		if err := d.tc.Send(hello.Encode()); err != nil {
			log.Fatalf("attest-loadgen: hello: %v", err)
		}
		go d.serveReads()
	}

	// Let every connection complete at least one honest round before the
	// measured phase, so connection setup stays out of the percentiles.
	time.Sleep(*attEvery + 100*time.Millisecond)
	for _, d := range devs {
		d.mu.Lock()
		// fullNs and fullCycles deliberately survive the reset: in a
		// quiescent fleet the warm-up round is often the only full MAC the
		// device ever pays, and it is the baseline the speedup is computed
		// against.
		d.sendNs = d.sendNs[:0]
		d.roundNs = d.roundNs[:0]
		d.fastNs = d.fastNs[:0]
		d.fastCycles = 0
		d.framesSent, d.roundsServd = 0, 0
		d.mu.Unlock()
	}

	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)

	deadline := time.Now().Add(*duration)
	t0 := time.Now()
	var live *liveMetrics
	var liveDone chan struct{}
	if metricsURL != "" {
		live = newLiveMetrics(metricsURL)
		liveDone = make(chan struct{})
		// Sample a handful of times across the phase (bounded below so a
		// short smoke run still gets first+last for the delta rates).
		every := *duration / 8
		if every < 100*time.Millisecond {
			every = 100 * time.Millisecond
		}
		go func() {
			defer close(liveDone)
			live.run(every, deadline)
		}()
	}
	if *chaos || *quiescent {
		// No adversarial pump in chaos mode (faultnet owns the adversity,
		// and the pump would race the supervisor's per-session connections)
		// or in quiescent mode (the point is an idle, clean fleet).
		time.Sleep(time.Until(deadline))
	} else {
		var wg sync.WaitGroup
		for _, d := range devs {
			wg.Add(1)
			go func(d *device) {
				defer wg.Done()
				d.pumpAdversarial(*rate, deadline)
			}(d)
		}
		wg.Wait()
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&msAfter)
	if live != nil {
		<-liveDone
	}

	// Recovery phase (chaos mode): stop injecting faults, tear the
	// mangled links so every supervisor reconnects over a clean socket,
	// and give each device a bounded window to complete a fresh authentic
	// round — the survival criterion.
	var survivors int
	if *chaos {
		chaosOn.Store(false)
		marks := make([]int64, len(devs))
		for i, d := range devs {
			d.mu.Lock()
			marks[i] = d.roundsServd
			if d.tc != nil {
				d.tc.Close()
			}
			d.mu.Unlock()
		}
		recovery := 5 * *attEvery
		if recovery < 2*time.Second {
			recovery = 2 * time.Second
		}
		recoveryDeadline := time.Now().Add(recovery)
		for time.Now().Before(recoveryDeadline) {
			survivors = 0
			for i, d := range devs {
				d.mu.Lock()
				if d.roundsServd > marks[i] {
					survivors++
				}
				d.mu.Unlock()
			}
			if survivors == len(devs) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		chaosCancel()
	}

	var sendNs, roundNs, fastNs, fullNs []int64
	var fastCycles, fullCycles cost.Cycles
	var framesSent, rounds int64
	var sessions, reconnects, dialErrors int64
	var faults faultnet.StatsSnapshot
	for _, d := range devs {
		d.mu.Lock()
		sendNs = append(sendNs, d.sendNs...)
		roundNs = append(roundNs, d.roundNs...)
		fastNs = append(fastNs, d.fastNs...)
		fullNs = append(fullNs, d.fullNs...)
		fastCycles += d.fastCycles
		fullCycles += d.fullCycles
		framesSent += d.framesSent
		rounds += d.roundsServd
		sessions += d.sessions
		reconnects += d.reconnects
		dialErrors += d.dialErrors
		faults.Resets += d.faults.Resets
		faults.Drops += d.faults.Drops
		faults.Corruptions += d.faults.Corruptions
		faults.ShortWrites += d.faults.ShortWrites
		faults.Delays += d.faults.Delays
		faults.RateStalls += d.faults.RateStalls
		if d.tc != nil {
			d.tc.Close()
		}
		d.mu.Unlock()
	}
	sort.Slice(sendNs, func(i, j int) bool { return sendNs[i] < sendNs[j] })
	sort.Slice(roundNs, func(i, j int) bool { return roundNs[i] < roundNs[j] })
	sort.Slice(fastNs, func(i, j int) bool { return fastNs[i] < fastNs[j] })

	res := benchServer{
		Bench:                    "server",
		Freshness:                fresh.String(),
		Auth:                     auth.String(),
		Transport:                "tcp " + target,
		InProcessServer:          srv != nil,
		Devices:                  *devices,
		DurationSec:              elapsed.Seconds(),
		AdversarialRatePerDevice: *rate,
		AdversarialFramesSent:    framesSent,
		FramesPerSec:             float64(framesSent) / elapsed.Seconds(),
		AdversarialSendNsP50:     percentile(sendNs, 0.50),
		AdversarialSendNsP95:     percentile(sendNs, 0.95),
		AdversarialSendNsP99:     percentile(sendNs, 0.99),
		AuthenticRounds:          rounds,
		AuthenticRoundNsPerOp:    mean(roundNs),
		AuthenticRoundNsP50:      percentile(roundNs, 0.50),
		AuthenticRoundNsP95:      percentile(roundNs, 0.95),
		AuthenticRoundNsP99:      percentile(roundNs, 0.99),
		AllocsPerFrame:           -1,
	}
	if adv := mean(sendNs); adv > 0 && res.AuthenticRoundNsPerOp > 0 {
		res.AsymmetryRatio = res.AuthenticRoundNsPerOp / adv
	}
	if *quiescent {
		res.Quiescent = true
		res.FastRounds = int64(len(fastNs))
		res.FullRounds = int64(len(fullNs))
		res.FastRoundNsPerOp = mean(fastNs)
		res.FastRoundNsP50 = percentile(fastNs, 0.50)
		res.FastRoundNsP95 = percentile(fastNs, 0.95)
		res.FastRoundNsP99 = percentile(fastNs, 0.99)
		res.FullRoundNsPerOp = mean(fullNs)
		if f := mean(fastNs); f > 0 && res.FullRoundNsPerOp > 0 {
			res.QuiescentSpeedup = float64(res.FullRoundNsPerOp) / float64(f)
		}
		if len(fastNs) > 0 && len(fullNs) > 0 {
			res.QuiescentModelSpeedup = (float64(fullCycles) / float64(len(fullNs))) /
				(float64(fastCycles) / float64(len(fastNs)))
		}
	}
	if *chaos {
		res.Chaos = true
		res.ChaosSchedule = sched.String()
		res.ChaosSeed = *chaosSeed
		res.ChaosSessions = sessions
		res.ChaosReconnects = reconnects
		res.ChaosDialErrors = dialErrors
		res.ChaosFaults = faults.Total()
		res.ChaosResets = faults.Resets
		res.ChaosDrops = faults.Drops
		res.ChaosCorruptions = faults.Corruptions
		res.ChaosShortWrites = faults.ShortWrites
		res.ChaosDelays = faults.Delays
		res.ChaosRateStalls = faults.RateStalls
		res.ChaosSurvivors = survivors
		res.ChaosSurvivalRate = float64(survivors) / float64(len(devs))
	}
	if live != nil {
		live.fill(&res)
	}
	totalFrames := framesSent + rounds
	if srv != nil && totalFrames > 0 {
		res.AllocsPerFrame = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(totalFrames)
		c := srv.Counters()
		res.ServerFramesIn = c.FramesIn
		res.ServerAccepted = c.ResponsesAccepted
		res.ServerUnsolicited = c.ResponsesUnsolicited
		res.ServerUnknown = c.UnknownFrames
		res.ServerRateLimited = c.RateLimited
		res.ServerIssued = c.RequestsIssued
		res.ServerResponsesFast = c.ResponsesFast
	}

	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatalf("attest-loadgen: %v", err)
	}
	fmt.Println(string(buf))
	if *out != "" {
		if err := writeSummary(*out, *variant, buf); err != nil {
			log.Fatalf("attest-loadgen: %v", err)
		}
		log.Printf("attest-loadgen: wrote %s", *out)
	}

	if rounds == 0 {
		log.Fatalf("attest-loadgen: no authentic rounds completed — daemon unreachable or policy mismatch")
	}
	if *quiescent {
		if res.FastRounds == 0 {
			log.Fatalf("attest-loadgen: quiescent fleet completed no fast rounds — fast path not granted or not taken")
		}
		if *minSpeedup > 0 && res.QuiescentModelSpeedup < *minSpeedup {
			log.Fatalf("attest-loadgen: quiescent speedup %.1fx in modelled prover cycles, below the %.0fx floor",
				res.QuiescentModelSpeedup, *minSpeedup)
		}
	}
}

// writeSummary writes the run summary to path. With a variant name the file
// holds a map of variant → summary and this run only replaces its own key;
// a pre-existing flat single-run file (the legacy format) is folded in
// under "baseline" rather than discarded.
func writeSummary(path, variant string, buf []byte) error {
	if variant == "" {
		return os.WriteFile(path, append(buf, '\n'), 0o644)
	}
	variants := map[string]json.RawMessage{}
	if old, err := os.ReadFile(path); err == nil {
		var m map[string]json.RawMessage
		if json.Unmarshal(old, &m) == nil {
			if _, flat := m["bench"]; flat {
				variants["baseline"] = json.RawMessage(old)
			} else {
				variants = m
			}
		}
	}
	variants[variant] = json.RawMessage(buf)
	out, err := json.MarshalIndent(variants, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
