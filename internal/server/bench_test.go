package server

import (
	"context"
	"encoding/json"
	"net"
	"os"
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
// which reads, classifies, rejects and times every frame. One op is one
// frame; ns/frame and allocs/frame cover the serve loop's goroutine and
// everything else the process ran meanwhile, the writer included.
func BenchmarkServeGateFlood(b *testing.B) {
	s, err := New(Config{
		Freshness:      protocol.FreshCounter,
		Auth:           protocol.AuthHMACSHA1,
		MasterSecret:   testMaster,
		Golden:         core.GoldenRAMPattern(),
		AttestEvery:    time.Hour,
		RequestTimeout: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	client, nc := tcpPair(b)
	defer client.Close()
	serveDevice(b, s, client, nc, "gate-flood-dev")
	const perWrite = 256
	wire, ends := gateMix(perWrite)
	waitFor(b, 5*time.Second, "the session to open", func() bool { return s.Counters().ConnsAccepted == 1 })

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
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
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/frame")
}

// transportBench is the BENCH_transport.json schema: host-side per-op
// costs of the two socket paths and the asymmetry between them. The
// absolute numbers are host wall time (the simulation compresses the
// prover's ≈754 ms measurement); the ratio is the portable result.
type transportBench struct {
	Bench     string `json:"bench"`
	Freshness string `json:"freshness"`
	Auth      string `json:"auth"`
	Transport string `json:"transport"`

	FullAttestRounds  int    `json:"full_attest_rounds"`
	GateRejectFrames  int    `json:"gate_reject_frames"`
	GateRejectBatches int    `json:"gate_reject_batches"`
	FullAttestNsPerOp int64  `json:"full_attest_host_ns_per_op"`
	FullAttestNsP50   int64  `json:"full_attest_host_ns_p50"`
	FullAttestNsP95   int64  `json:"full_attest_host_ns_p95"`
	GateRejectNsPerOp int64  `json:"gate_reject_host_ns_per_op"`
	GateRejectNsP50   int64  `json:"gate_reject_host_ns_p50"`
	GateRejectNsP95   int64  `json:"gate_reject_host_ns_p95"`
	AsymmetryRatio    int64  `json:"asymmetry_ratio"`
	AgentMeasurements uint64 `json:"agent_measurements"`
	AgentGateRejected uint64 `json:"agent_gate_rejected"`
}

func sortedPercentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sampleStats(samples []int64) (mean, p50, p95 int64) {
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, s := range sorted {
		sum += s
	}
	return sum / int64(len(sorted)), sortedPercentile(sorted, 0.50), sortedPercentile(sorted, 0.95)
}

// TestEmitTransportBench measures gate-reject versus full-attest cost over
// the socket path and, when BENCH_TRANSPORT_OUT names a file, writes the
// result as BENCH_transport.json (see `make bench-transport`). Without the
// env var it runs as a small smoke check of the same harness.
//
// Stability: the full-attest cost is sampled per round (50 rounds) and the
// gate cost per batch of 100 forged frames, each batch flushed by one
// honest round; medians drive the asymmetry assertion so a single
// scheduler hiccup cannot flip the result.
func TestEmitTransportBench(t *testing.T) {
	out := os.Getenv("BENCH_TRANSPORT_OUT")
	rounds, batches, batchSize := 1, 1, 50
	if out != "" {
		rounds, batches, batchSize = 50, 20, 100
	}
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

	if out == "" {
		return
	}
	res := transportBench{
		Bench:             "transport",
		Freshness:         protocol.FreshCounter.String(),
		Auth:              protocol.AuthHMACSHA1.String(),
		Transport:         "net.Pipe loopback",
		FullAttestRounds:  rounds,
		GateRejectFrames:  frames,
		GateRejectBatches: batches,
		FullAttestNsPerOp: fullNs,
		FullAttestNsP50:   fullP50,
		FullAttestNsP95:   fullP95,
		GateRejectNsPerOp: gateNs,
		GateRejectNsP50:   gateP50,
		GateRejectNsP95:   gateP95,
		AsymmetryRatio:    fullP50 / gateP50,
		AgentMeasurements: st.Measurements,
		AgentGateRejected: st.GateRejected(),
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
