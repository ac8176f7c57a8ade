package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"time"

	"proverattest/internal/agent"
	"proverattest/internal/crypto/cost"
	"proverattest/internal/energy"
	"proverattest/internal/obs"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// The traced replay feeds a workload's frame stream through each layer's
// public entry points in this process, in the order the daemon calls them,
// and records a span around every call. It runs apart from the measured
// run, so tracing never slows an end-to-end number.

// span is one timed call. Spans of one frame or round share Frame; Parent
// is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Frame  int64  `json:"frame"`
}

// tracer keeps spans in memory. With on false, begin and end do nothing:
// that is the untraced pass the traced one is compared with.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{on: true, t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent int32, frame int64) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Frame: frame})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls int
	dur   float64 // total duration, ns
	self  float64 // total self time, ns
}

// selfTimes aggregates spans by name, and by "<root>/<name>" for spans
// directly under a root. A span's self time is its duration minus the part
// of it that its children cover.
func selfTimes(spans []span, into map[string]*layerStat) {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	add := func(key string, dur, self float64) {
		st := into[key]
		if st == nil {
			st = &layerStat{}
			into[key] = st
		}
		st.calls++
		st.dur += dur
		st.self += self
	}
	for i, s := range spans {
		dur := float64(s.End - s.Start)
		self := dur - float64(covered(spans, children[i], s.Start, s.End))
		add(s.Name, dur, self)
		if s.Parent >= 0 && spans[s.Parent].Parent < 0 {
			add(spans[s.Parent].Name+"/"+s.Name, dur, self)
		}
	}
}

// covered is the length of the union of the child intervals, clipped to
// [start, end].
func covered(spans []span, kids []int32, start, end int64) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, start), min(spans[k].End, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// roundState is one device's verifier and prover for replayed rounds.
type roundState struct {
	v    *protocol.Verifier
	fr   *protocol.FastResponder
	resp protocol.AttResp
	dec  protocol.AttResp
	enc  []byte
	out  []byte
}

func newRoundState(golden []byte, fast bool) (*roundState, error) {
	key := deviceKey("dev-0")
	v, err := protocol.NewVerifier(protocol.VerifierConfig{
		Freshness:     protocol.FreshCounter,
		Auth:          protocol.NewHMACAuth(key),
		AttestKey:     key,
		Golden:        golden,
		AllowFastPath: fast,
	})
	if err != nil {
		return nil, err
	}
	return &roundState{v: v, fr: protocol.NewFastResponder(key, golden)}, nil
}

// replay holds one workload's replayed streams and the loopback
// connections they cross.
type replay struct {
	golden []byte

	gate       [][]byte // daemon-bound hostile stream, one Write per entry
	perWrite   int      // frames per entry
	fullRounds int      // rounds that carry a full-memory MAC
	fastRounds int      // rounds on the O(1) fast path (the first arms it)

	gw, rw   net.Conn        // write the gate stream and the responses
	gr, rr   *transport.Conn // read them, as the daemon's read loop does
	ss       *transport.Conn // sends requests
	sinkDone chan struct{}   // closed when the request sink has drained

	gv      *protocol.Verifier // answers hostile responses: no request is outstanding
	dec     protocol.AttResp
	frames  *obs.Counter
	gateLat *obs.Histogram
	accept  *obs.Counter
	attLat  *obs.Histogram
}

func newReplay(w *workload, seed int64, golden []byte) (*replay, error) {
	r := &replay{golden: golden, perWrite: w.batch, fullRounds: 8, fastRounds: 512}
	if w.batch > 1 {
		r.gate = gateStream(seed, 16, w.batch)
	} else {
		// No daemon-bound flood: the gate path still runs, one frame per
		// write, on the same 1:1:1 mix.
		r.gate = gateStream(seed, 3*128, 1)
	}
	if !w.fastPath() {
		// The live rounds are all full MACs: replay mostly those.
		r.fullRounds, r.fastRounds = 24, 64
	}
	var err error
	if r.gv, err = protocol.NewVerifier(protocol.VerifierConfig{
		Freshness: protocol.FreshCounter,
		Auth:      protocol.NewHMACAuth(deviceKey("atk-0")),
		AttestKey: deviceKey("atk-0"),
		Golden:    golden,
	}); err != nil {
		return nil, err
	}
	reg := obs.New()
	r.frames = reg.Counter("frames_total", "")
	r.gateLat = reg.Histogram("gate_seconds", "", nil)
	r.accept = reg.Counter("accepted_total", "")
	r.attLat = reg.Histogram("attest_seconds", "", nil)

	var conns []net.Conn
	for i := 0; i < 3; i++ {
		a, b, err := tcpPair()
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, a, b)
	}
	r.gw, r.gr = conns[0], transport.NewConn(conns[1], transport.Options{})
	r.rw, r.rr = conns[2], transport.NewConn(conns[3], transport.Options{})
	r.ss = transport.NewConn(conns[4], transport.Options{})
	r.sinkDone = make(chan struct{})
	go func() {
		defer close(r.sinkDone)
		_, _ = io.Copy(io.Discard, conns[5]) // ends when close shuts the sender
		conns[5].Close()
	}()
	return r, nil
}

func (r *replay) close() {
	r.gw.Close()
	r.gr.Close()
	r.rw.Close()
	r.rr.Close()
	r.ss.Close()
	<-r.sinkDone
}

func tcpPair() (net.Conn, net.Conn, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	b, err := ln.Accept()
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

// pass replays the gate stream, then the rounds, once, and returns how
// long the gate stream took: its many cheap calls are where the cost of
// tracing can be told from noise. Each write lands in the socket buffer
// before the timed reads, so a receive span measures the read path, not a
// wait for the writer.
func (r *replay) pass(tr *tracer) (time.Duration, error) {
	var id int64
	t0 := time.Now()
	for _, chunk := range r.gate {
		if _, err := r.gw.Write(chunk); err != nil {
			return 0, err
		}
		for k := 0; k < r.perWrite; k++ {
			if err := r.gateFrame(tr, id); err != nil {
				return 0, err
			}
			id++
		}
	}
	gate := time.Since(t0)
	full, err := newRoundState(r.golden, false)
	if err != nil {
		return 0, err
	}
	fast, err := newRoundState(r.golden, true)
	if err != nil {
		return 0, err
	}
	for i := 0; i < r.fullRounds+r.fastRounds; i++ {
		st := full
		if i >= r.fullRounds {
			st = fast
		}
		if err := r.round(tr, st, id); err != nil {
			return 0, err
		}
		id++
	}
	return gate, nil
}

// gateFrame is the daemon's per-frame path for a frame that is not an
// answer to an outstanding request.
func (r *replay) gateFrame(tr *tracer, id int64) error {
	root := tr.begin("frame", -1, id)
	s := tr.begin("transport.recv", root, id)
	frame, err := r.gr.RecvShared()
	tr.end(s)
	if err != nil {
		return err
	}
	t0 := time.Now()
	s = tr.begin("protocol.classify", root, id)
	kind := protocol.ClassifyFrame(frame)
	tr.end(s)
	if kind == protocol.FrameAttResp {
		s = tr.begin("protocol.decode_resp", root, id)
		err := protocol.DecodeAttRespInto(frame, &r.dec)
		tr.end(s)
		if err == nil {
			s = tr.begin("protocol.check_unsolicited", root, id)
			ok, _ := r.gv.CheckDecodedResponse(&r.dec)
			tr.end(s)
			if ok {
				return errors.New("replay: a hostile response was accepted")
			}
		}
	}
	s = tr.begin("obs.record", root, id)
	r.frames.Inc()
	r.gateLat.Observe(time.Since(t0))
	tr.end(s)
	tr.end(root)
	return nil
}

// round is one attestation round: the daemon's issue path, the prover's
// answer, and the daemon's accept path.
func (r *replay) round(tr *tracer, st *roundState, id int64) error {
	root := tr.begin("round", -1, id)
	s := tr.begin("protocol.new_request", root, id)
	req, err := st.v.NewRequest()
	var raw []byte
	if err == nil {
		raw = req.Encode()
	}
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("transport.send", root, id)
	err = r.ss.Send(raw)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("prover.respond", root, id)
	st.fr.RespondInto(req, &st.resp)
	st.enc = st.resp.AppendEncode(st.enc[:0])
	tr.end(s)
	st.out = transport.AppendFrame(st.out[:0], st.enc)
	if _, err := r.rw.Write(st.out); err != nil {
		return err
	}
	s = tr.begin("transport.recv", root, id)
	frame, err := r.rr.RecvShared()
	tr.end(s)
	if err != nil {
		return err
	}
	t0 := time.Now()
	s = tr.begin("protocol.classify", root, id)
	kind := protocol.ClassifyFrame(frame)
	tr.end(s)
	s = tr.begin("protocol.decode_resp", root, id)
	err = protocol.DecodeAttRespInto(frame, &st.dec)
	tr.end(s)
	if kind != protocol.FrameAttResp || err != nil {
		return fmt.Errorf("replay: honest response failed to decode: %v", err)
	}
	name := "protocol.check_full"
	if st.dec.Fast {
		name = "protocol.check_fast"
	}
	s = tr.begin(name, root, id)
	ok, err := st.v.CheckDecodedResponse(&st.dec)
	tr.end(s)
	if !ok {
		return fmt.Errorf("replay: honest response rejected: %v", err)
	}
	s = tr.begin("obs.record", root, id)
	r.accept.Inc()
	r.attLat.Observe(time.Since(t0))
	tr.end(s)
	tr.end(root)
	return nil
}

// proverCalls replays the impersonator's mix through a real agent: after
// each genuine request, perGenuine hostile frames (forged, replayed,
// malformed in seeded 1:1:1 cycles). It returns the anchor's exact cycle
// cost of every call, by kind.
func proverCalls(tr *tracer, seed int64, genuine, perGenuine int, firstID int64) (map[string][]uint64, error) {
	a, err := agent.New(agent.Config{
		DeviceID:     "dev-0",
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: []byte(benchMaster),
	})
	if err != nil {
		return nil, err
	}
	key := deviceKey("dev-0")
	v, err := protocol.NewVerifier(protocol.VerifierConfig{
		Freshness: protocol.FreshCounter,
		Auth:      protocol.NewHMACAuth(key),
		AttestKey: key,
	})
	if err != nil {
		return nil, err
	}
	mix := newProverMix(seed)
	cycles := make(map[string][]uint64)
	id, n := firstID, 0
	call := func(kind string, frame []byte) []byte {
		c0 := a.Snapshot().ActiveCycles
		s := tr.begin("agent.process."+kind, -1, id)
		out := a.Process(frame)
		tr.end(s)
		cycles[kind] = append(cycles[kind], a.Snapshot().ActiveCycles-c0)
		id++
		return out
	}
	for g := 0; g < genuine; g++ {
		req, err := v.NewRequest()
		if err != nil {
			return nil, err
		}
		raw := req.Encode()
		if call("honest", raw) == nil {
			return nil, errors.New("replay: the agent rejected a genuine request")
		}
		for i := 0; i < perGenuine; i++ {
			k, f := mix.frame(n, raw)
			n++
			if call(proverKindNames[k], f) != nil {
				return nil, fmt.Errorf("replay: the agent answered a %s frame", proverKindNames[k])
			}
		}
	}
	return cycles, nil
}

// replayPasses is the number of untraced and traced passes, alternated.
const replayPasses = 5

// traceResult is a workload's traced replay.
type traceResult struct {
	layers map[string]float64
	stats  map[string]*layerStat
	floor  float64 // cost of an empty span inside its own interval, ns
	spans  []span  // the last traced pass, then the prover calls
}

// traceWorkload replays w's streams untraced and traced, and derives the
// per-layer metrics. live is the same workload's untraced run: its
// counters weight the replayed per-call costs by the live mix.
func traceWorkload(w *workload, seed int64, golden []byte, live *runResult) (*traceResult, error) {
	r, err := newReplay(w, seed, golden)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if _, err := r.pass(&tracer{}); err != nil { // warm-up
		return nil, err
	}
	res := &traceResult{stats: make(map[string]*layerStat)}
	var on, off []float64
	var last *tracer
	var probeNs float64 // the host's speed on this CPU during the replay (speed.go)
	for i := 0; i < replayPasses; i++ {
		probeNs += probeHere() / replayPasses
		d, err := r.pass(&tracer{})
		if err != nil {
			return nil, err
		}
		off = append(off, float64(d))
		capacity := 1024
		if last != nil {
			capacity = len(last.spans)
		}
		t := newTracer(capacity)
		if d, err = r.pass(t); err != nil {
			return nil, err
		}
		on = append(on, float64(d))
		selfTimes(t.spans, res.stats)
		last = t
	}
	var gateSpans float64
	for _, s := range last.spans {
		if s.Name == "frame" || (s.Parent >= 0 && last.spans[s.Parent].Name == "frame") {
			gateSpans++
		}
	}
	res.floor = spanFloor()

	pt := newTracer(1024)
	pt.t0 = last.t0
	genuine, perGenuine := 2, 96
	if !w.fastPath() {
		genuine = 8
	}
	cycles, err := proverCalls(pt, seed, genuine, perGenuine, int64(len(last.spans)))
	if err != nil {
		return nil, err
	}
	selfTimes(pt.spans, res.stats)
	res.spans = append(last.spans, pt.spans...)

	allocs, err := newRequestAllocs(golden)
	if err != nil {
		return nil, err
	}
	slow := slowdown(probeNs)
	res.layers = layerMetrics(res.stats, res.floor, slow, cycles, live)
	res.layers["protocol.new_request_allocs"] = allocs
	res.layers["trace.overhead_ns_per_call"] = (median(on) - median(off)) / gateSpans / slow
	return res, nil
}

// spanFloor is the mean duration of an empty span: the part of the timer
// reads that lands inside every measured interval. It is subtracted from
// each per-call figure.
func spanFloor() float64 {
	const n = 20000
	var runs []float64
	for r := 0; r < 3; r++ {
		t := newTracer(n)
		for i := 0; i < n; i++ {
			t.end(t.begin("empty", -1, 0))
		}
		var sum int64
		for _, s := range t.spans {
			sum += s.End - s.Start
		}
		runs = append(runs, float64(sum)/n)
	}
	return median(runs)
}

// newRequestAllocs is the heap objects one issue-path call (NewRequest and
// Encode) allocates. Each request is abandoned at once, as the daemon
// retires every request, so the pending map stays small.
func newRequestAllocs(golden []byte) (float64, error) {
	st, err := newRoundState(golden, false)
	if err != nil {
		return 0, err
	}
	const n = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		req, err := st.v.NewRequest()
		if err != nil {
			return 0, err
		}
		_ = req.Encode()
		st.v.Abandon(req.Nonce)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, nil
}

// layerMetrics turns the replayed spans into the per-layer metrics. Times
// are given at the reference CPU speed: the replay's divided by slow, how
// much slower than that speed it ran, and the live daemon's CPU by the
// slowdown over its measured phase. The replay runs seconds to minutes
// after the live phase, on another CPU; unscaled, a change in the host's
// speed between the two could put the daemon's self time below zero.
func layerMetrics(stats map[string]*layerStat, floor, slow float64, cycles map[string][]uint64, live *runResult) map[string]float64 {
	ns := func(name string) float64 {
		st := stats[name]
		if st == nil || st.calls == 0 {
			return math.NaN()
		}
		return (st.dur/float64(st.calls) - floor) / slow
	}
	d := func(name string) float64 { return live.last.series[name] - live.first.series[name] }
	rej := func(cause string) float64 {
		return rejects(live.last.series, cause) - rejects(live.first.series, cause)
	}
	frames := d("attestd_frames_total")
	accepted := d("attestd_responses_accepted_total")
	fast := d("attestd_responses_fast_total")
	admitted := sumFamily(live.last.series, "attestd_tier_admitted_total") - sumFamily(live.first.series, "attestd_tier_admitted_total")
	issued := d("attestd_requests_issued_total")
	unsolicited := rej("unsolicited")
	decoded := accepted + unsolicited + rej("malformed_response") + rej("bad_measurement") + rej("fast_mismatch")
	cpuNs := float64(live.last.daemon.cpuNs-live.first.daemon.cpuNs) / slowdown(live.probeNs)

	// Honest responses cross the unbatched round stream; every other frame
	// the daemon reads crosses the workload's hostile (or stats) stream.
	recv := (ns("frame/transport.recv")*(frames-accepted) + ns("round/transport.recv")*accepted) / frames
	m := map[string]float64{
		"transport.recv_ns":             recv,
		"transport.send_ns":             ns("transport.send"),
		"protocol.classify_ns":          ns("protocol.classify"),
		"protocol.decode_resp_ns":       ns("protocol.decode_resp"),
		"protocol.check_unsolicited_ns": ns("protocol.check_unsolicited"),
		"protocol.check_fast_ns":        ns("protocol.check_fast"),
		"protocol.new_request_ns":       ns("protocol.new_request"),
		"protocol.check_full_us":        ns("protocol.check_full") / 1e3,
		"obs.record_ns":                 ns("obs.record"),
		"agent.process_us.honest":       ns("agent.process.honest") / 1e3,
		"agent.process_us.forged":       ns("agent.process.forged") / 1e3,
		"agent.process_us.replayed":     ns("agent.process.replayed") / 1e3,
		"agent.process_us.malformed":    ns("agent.process.malformed") / 1e3,
		"anchor.cycles.measure":         meanU(cycles["honest"]),
		"anchor.cycles.forged":          meanU(cycles["forged"]),
		"anchor.cycles.replayed":        meanU(cycles["replayed"]),
		"anchor.cycles.malformed":       meanU(cycles["malformed"]),
	}
	children := recv*frames + m["protocol.classify_ns"]*admitted + m["protocol.decode_resp_ns"]*decoded +
		m["protocol.check_unsolicited_ns"]*unsolicited + m["protocol.check_fast_ns"]*fast +
		m["protocol.check_full_us"]*1e3*(accepted-fast) + m["obs.record_ns"]*frames +
		(m["protocol.new_request_ns"]+m["transport.send_ns"])*issued
	m["server.self_ns_per_frame"] = (cpuNs - children) / frames
	m["server.self_us_per_round"] = (cpuNs - children) / 1e3 / accepted

	// The energy of a reject, averaged over the 1:1:1 mix, and the
	// paper's asymmetry: cycles of one measurement per cycles of a reject.
	p := energy.DefaultPower()
	var uj, rejCycles float64
	for _, k := range proverKindNames {
		c := m["anchor.cycles."+k]
		uj += p.ActiveEnergyJoules(cost.Cycles(c)) * 1e6 / 3
		rejCycles += c / 3
	}
	m["anchor.reject_uj"] = uj
	m["anchor.asymmetry"] = m["anchor.cycles.measure"] / rejCycles
	return m
}

func meanU(xs []uint64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}
