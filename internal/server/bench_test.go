package server

import (
	"context"
	"math"
	"net"
	"runtime"
	"sort"
	"testing"
	"time"

	"proverattest/internal/agent"
	"proverattest/internal/core"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// benchRig wires one agent over net.Pipe to a bare verifier-side
// transport.Conn, so benchmarks measure the socket path without the
// daemon's scheduling around it.
type benchRig struct {
	a      *agent.Agent
	client *transport.Conn
	v      *protocol.Verifier
	cancel context.CancelFunc
	done   chan struct{}
}

func newBenchRig(tb testing.TB) *benchRig {
	tb.Helper()
	const deviceID = "bench-dev"
	a, err := agent.New(agent.Config{
		DeviceID:     deviceID,
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: testMaster,
		// A distant heartbeat keeps stats chatter out of the timings.
		StatsEvery: time.Hour,
	})
	if err != nil {
		tb.Fatal(err)
	}
	clientNC, agentNC := net.Pipe()
	client := transport.NewConn(clientNC, transport.Options{
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.Serve(ctx, agentNC) //nolint:errcheck
	}()
	// Consume the hello so the timed loops see only protocol frames.
	frame, err := client.Recv()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := protocol.DecodeHello(frame); err != nil {
		tb.Fatalf("first frame is not a hello: %v", err)
	}
	key := protocol.DeriveDeviceKey(testMaster, deviceID)
	v, err := protocol.NewVerifier(protocol.VerifierConfig{
		Freshness: protocol.FreshCounter,
		Auth:      protocol.NewHMACAuth(key[:]),
		AttestKey: key[:],
		Golden:    a.Device().GoldenRAM(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return &benchRig{a: a, client: client, v: v, cancel: cancel, done: done}
}

func (r *benchRig) close() {
	r.cancel()
	r.client.Close()
	<-r.done
}

// recvAttResp reads frames until the next attestation response.
func (r *benchRig) recvAttResp(tb testing.TB) []byte {
	tb.Helper()
	for {
		frame, err := r.client.Recv()
		if err != nil {
			tb.Fatal(err)
		}
		if protocol.ClassifyFrame(frame) == protocol.FrameAttResp {
			return frame
		}
	}
}

// honestRound runs one full attest round and verifies the measurement.
func (r *benchRig) honestRound(tb testing.TB) {
	tb.Helper()
	req, err := r.v.NewRequest()
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.client.Send(req.Encode()); err != nil {
		tb.Fatal(err)
	}
	if ok, err := r.v.CheckResponse(r.recvAttResp(tb)); !ok {
		tb.Fatalf("measurement rejected: %v", err)
	}
	// Drain the stats frame the agent piggybacks on every measurement:
	// net.Pipe is unbuffered, so leaving it in the pipe would wedge the
	// agent's write against our next request's write.
	frame, err := r.client.Recv()
	if err != nil {
		tb.Fatal(err)
	}
	if protocol.ClassifyFrame(frame) != protocol.FrameStats {
		tb.Fatalf("expected the piggybacked stats frame, got %v", protocol.ClassifyFrame(frame))
	}
}

// forgedFrame is a well-framed request with a garbage tag — the
// impersonator's cheapest gate probe.
func forgedBenchFrame(n int) []byte {
	tag := make([]byte, 20)
	for j := range tag {
		tag[j] = byte(n*31 + j*7)
	}
	req := &protocol.AttReq{
		Freshness: protocol.FreshCounter,
		Auth:      protocol.AuthHMACSHA1,
		Nonce:     2_000_000_011 + uint64(n),
		Counter:   2_000_000_011 + uint64(n),
		Tag:       tag,
	}
	return req.Encode()
}

// BenchmarkSocketFullAttest times one authentic attestation round over the
// socket: request signing, both socket hops, the simulated ≈754 ms memory
// measurement (host-time compressed) and response verification.
func BenchmarkSocketFullAttest(b *testing.B) {
	rig := newBenchRig(b)
	defer rig.close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.honestRound(b)
	}
}

// BenchmarkSocketGateReject times the prover's cost of refusing one forged
// frame over the socket. The b.N forged frames are flushed by a single
// honest round (the agent processes frames in order, so its response
// proves every forgery was handled); that one measurement amortises to
// noise for large b.N.
func BenchmarkSocketGateReject(b *testing.B) {
	rig := newBenchRig(b)
	defer rig.close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rig.client.Send(forgedBenchFrame(i)); err != nil {
			b.Fatal(err)
		}
	}
	rig.honestRound(b)
	b.StopTimer()
	st := rig.a.Snapshot()
	if st.AuthRejected != uint64(b.N) {
		b.Fatalf("AuthRejected = %d, want %d", st.AuthRejected, b.N)
	}
}

// BenchmarkServeGateFlood times the daemon's live gate with the transport
// under it: the 1:1:1 unsolicited/malformed/unknown mix, written 256
// frames at a time over loopback TCP into one connection's serve loop,
// which reads, admits, classifies, rejects and times every frame.
// gateMix's unsolicited frames name nonce 0xFEED, which the device was
// never issued, so they are refused by their nonce after the strict
// checks, without the device lock, as a blind flooder's are. mix has no
// admission cap, so its reads ask no bucket. Each other case caps one
// stage of the admission chain at 400 frames/s with a burst of 400, so
// every frame past the burst dies there before classify: conn_limited at
// the connection's bucket, tier_limited at the bucket of a bulk tier the
// device is matched into, daemon_rate at the daemon's. One op is one
// frame; ns/frame and allocs/frame cover the serve loop's goroutine and
// everything else the process ran meanwhile, the writer included.
// reads/frame and bytes/read count the serve loop's socket reads: each
// read costs a syscall, a deadline arm, two clock readings, the chain's
// resolution and one publish of the per-frame series.
func BenchmarkServeGateFlood(b *testing.B) {
	b.Run("mix", func(b *testing.B) { benchServeGateFlood(b, nil) })
	b.Run("conn_limited", func(b *testing.B) {
		benchServeGateFlood(b, func(c *Config) { c.PerConnRatePerSec, c.PerConnBurst = 400, 400 })
	})
	b.Run("tier_limited", func(b *testing.B) {
		benchServeGateFlood(b, func(c *Config) {
			c.Tiers = &TierPolicy{Tiers: []TierSpec{
				{Name: "bulk", Match: []string{"gate-flood-"}, RatePerSec: 400, Burst: 400},
			}}
		})
	})
	b.Run("daemon_rate", func(b *testing.B) {
		benchServeGateFlood(b, func(c *Config) { c.MaxRatePerSec, c.MaxRateBurst = 400, 400 })
	})
}

// benchServeGateFlood floods one session of a daemon built from the
// default config, which limit adjusts first when it is non-nil.
func benchServeGateFlood(b *testing.B, limit func(*Config)) {
	cfg := Config{
		Freshness:      protocol.FreshCounter,
		Auth:           protocol.AuthHMACSHA1,
		MasterSecret:   testMaster,
		Golden:         core.GoldenRAMPattern(),
		AttestEvery:    time.Hour,
		RequestTimeout: time.Hour,
	}
	if limit != nil {
		limit(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	client, nc := tcpPair(b)
	defer client.Close()
	cc := &countingConn{Conn: nc}
	serveDevice(b, s, client, cc, "gate-flood-dev")
	const perWrite = 256
	wire, ends := gateMix(perWrite)
	waitFor(b, 5*time.Second, "the session to open", func() bool { return s.Counters().ConnsAccepted == 1 })

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reads, bytes := cc.reads.Load(), cc.bytes.Load()
	b.ResetTimer()
	for sent := 0; sent < b.N; sent += perWrite {
		n := min(perWrite, b.N-sent)
		if _, err := client.Write(wire[:ends[n-1]]); err != nil {
			b.Fatal(err)
		}
	}
	for s.m.framesIn.Load() < uint64(b.N) {
		time.Sleep(20 * time.Microsecond)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	reads, bytes = cc.reads.Load()-reads, cc.bytes.Load()-bytes
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/frame")
	b.ReportMetric(float64(reads)/float64(b.N), "reads/frame")
	b.ReportMetric(float64(bytes)/float64(reads), "bytes/read")
}

// percentile is the nearest-rank q-quantile of an ascending-sorted
// sample: the smallest element with at least ceil(q·n) values at or below
// it.
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

// TestPercentileNearestRank pins the quantile estimator to the
// nearest-rank definition: the smallest sorted element with at least
// ceil(q·n) samples at or below it. The regression rows are the cases an
// int(q·n) truncation gets wrong — whenever q·n lands on an integer it
// indexes one rank too high (p50 of four samples returns the third).
func TestPercentileNearestRank(t *testing.T) {
	tests := []struct {
		name   string
		sorted []int64
		q      float64
		want   int64
	}{
		{"empty", nil, 0.50, 0},
		{"single p50", []int64{7}, 0.50, 7},
		{"single p99", []int64{7}, 0.99, 7},

		// q·n integral: truncation would return sorted[q·n] (one rank high).
		{"p50 even n", []int64{10, 20, 30, 40}, 0.50, 20},
		{"p25 of 4", []int64{10, 20, 30, 40}, 0.25, 10},
		{"p75 of 4", []int64{10, 20, 30, 40}, 0.75, 30},
		{"p50 of 2", []int64{1, 2}, 0.50, 1},
		{"p95 of 20", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 0.95, 19},

		// q·n fractional: ceil picks the same rank both ways.
		{"p50 odd n", []int64{10, 20, 30}, 0.50, 20},
		{"p95 of 3", []int64{10, 20, 30}, 0.95, 30},
		{"p99 of 10", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 10},

		// Extremes clamp to the sample's ends.
		{"p100", []int64{10, 20, 30}, 1.00, 30},
		{"p0", []int64{10, 20, 30}, 0.00, 10},
	}
	for _, tc := range tests {
		if got := percentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: percentile(%v, %v) = %d, want %d", tc.name, tc.sorted, tc.q, got, tc.want)
		}
	}
}

func sampleStats(samples []int64) (mean, p50, p95 int64) {
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, s := range sorted {
		sum += s
	}
	return sum / int64(len(sorted)), percentile(sorted, 0.50), percentile(sorted, 0.95)
}

// TestEmitTransportBench measures gate-reject versus full-attest cost over
// the socket path: one timed honest round, and one batch of 50 forged
// frames flushed by an honest round. The stamped, repeated figures for the
// same asymmetry come from the end-to-end benchmark under bench/.
func TestEmitTransportBench(t *testing.T) {
	const rounds, batches, batchSize = 1, 1, 50
	frames := batches * batchSize
	rig := newBenchRig(t)
	defer rig.close()
	rig.honestRound(t) // warm both sides before timing

	fullSamples := make([]int64, rounds)
	for i := range fullSamples {
		t0 := time.Now()
		rig.honestRound(t)
		fullSamples[i] = time.Since(t0).Nanoseconds()
	}
	fullNs, fullP50, fullP95 := sampleStats(fullSamples)

	// Each gate batch is flushed by one honest round (the agent processes
	// frames in order, so its response proves the whole batch was
	// handled); that round's median cost is subtracted back out.
	gateSamples := make([]int64, batches)
	sent := 0
	for b := range gateSamples {
		t1 := time.Now()
		for i := 0; i < batchSize; i++ {
			if err := rig.client.Send(forgedBenchFrame(sent)); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		rig.honestRound(t)
		ns := (time.Since(t1).Nanoseconds() - fullP50) / int64(batchSize)
		if ns < 1 {
			ns = 1
		}
		gateSamples[b] = ns
	}
	gateNs, gateP50, gateP95 := sampleStats(gateSamples)

	st := rig.a.Snapshot()
	wantMeasured := uint64(1 + rounds + batches) // warm-up + timed rounds + batch flushes
	if st.AuthRejected != uint64(frames) || st.Measurements != wantMeasured {
		t.Fatalf("stats = %+v, want %d auth rejects, %d measurements", st, frames, wantMeasured)
	}
	// The asymmetry the subsystem exists to demonstrate: an authentic
	// round costs orders of magnitude more than refusing a forgery.
	// Compared at the medians, which outlier rounds cannot move.
	if fullP50 < 10*gateP50 {
		t.Errorf("full attest %d ns vs gate reject %d ns (medians): asymmetry below 10x", fullP50, gateP50)
	}
	t.Logf("full attest %d ns/op (p50 %d, p95 %d), gate reject %d ns/op (p50 %d, p95 %d), %dx",
		fullNs, fullP50, fullP95, gateNs, gateP50, gateP95, fullP50/gateP50)
}
