package main

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"proverattest/internal/agent"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// traffic is one workload's load: its connections to the daemon and the
// provers and attackers behind them, all in the benchmark process.
type traffic interface {
	// connect opens the workload's connections to the daemon and starts
	// the honest provers, held as at a quiet point until resume.
	connect(addr string, deadline time.Time) error
	// served reports whether every honest prover has received a request,
	// and when the last of them received its first.
	served() (at time.Time, ok bool)
	// responded reports whether every honest prover has answered a request.
	responded() bool
	// startHostile starts the unpaced hostile stream, if the workload has one.
	startHostile()
	// counters reads the generator's own counts.
	counters() genCounters
	// quiet holds everything the generator sends, waits until the daemon
	// (and the prover) have consumed all of it, and returns the counts on
	// both sides: a point where they can be compared exactly.
	quiet(d *daemon) (point, error)
	// resume releases what quiet or connect held.
	resume()
	// account checks the exact accounting between two quiet points.
	account(from, to *point) account
	// close tears the connections down and waits for every goroutine.
	close()
}

// genCounters are the generator's counts, read at each sample.
type genCounters struct {
	proverFrames uint64                // frames the prover side received and gated
	agent        *protocol.StatsReport // the agent's gate counters (prover_flood only)
	gaps         []int64               // request inter-arrival gaps at the prover since the last read, ns
}

// point is the state of both sides at a quiet point.
type point struct {
	t        time.Time
	series   map[string]float64 // the daemon's counters
	answered uint64             // responses the honest provers sent (forwarded, for the agent)
	hostile  uint64             // hostile frames written toward the daemon
	// prover_flood only
	delivered uint64    // genuine requests written to the agent
	injected  [3]uint64 // hostile frames written to the agent, by kind
	agent     protocol.StatsReport
}

// account is the exact operation accounting between two quiet points and
// the checks it failed.
type account struct {
	attempted, failed uint64
	failures          []string
}

func (a *account) check(ok bool, format string, args ...any) {
	if !ok {
		a.failures = append(a.failures, fmt.Sprintf(format, args...))
	}
}

func absDiff(want uint64, got float64) uint64 {
	d := float64(want) - got
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// drainTimeout bounds the wait for the daemon and the prover to consume
// what was sent.
const drainTimeout = 15 * time.Second

// waitFor polls the daemon's counters until cond holds.
func waitFor(d *daemon, what string, cond func(map[string]float64) bool) (map[string]float64, error) {
	deadline := time.Now().Add(drainTimeout)
	for {
		s, err := d.scrape()
		if err != nil {
			return nil, err
		}
		if cond(s) {
			return s, nil
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("%w waiting for %s", errTimeout, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitFrames waits until the daemon has read n frames in all.
func waitFrames(d *daemon, n uint64) (map[string]float64, error) {
	return waitFor(d, fmt.Sprintf("the daemon to read all %d frames sent", n), func(s map[string]float64) bool {
		return s["attestd_frames_total"] >= float64(n)
	})
}

// causes lists the nonzero reject counters of a sample.
func causes(s map[string]float64) string {
	var out []string
	for key, v := range s {
		if v != 0 && strings.HasPrefix(key, "attestd_rejects_total{") {
			out = append(out, fmt.Sprintf("%s=%.0f", strings.TrimPrefix(key, "attestd_rejects_total"), v))
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// gapRecorder keeps the inter-arrival gaps of requests at a prover.
type gapRecorder struct {
	mu   sync.Mutex
	last time.Time
	gaps []int64
}

func (g *gapRecorder) record(now time.Time) {
	g.mu.Lock()
	if !g.last.IsZero() {
		g.gaps = append(g.gaps, now.Sub(g.last).Nanoseconds())
	}
	g.last = now
	g.mu.Unlock()
}

func (g *gapRecorder) take() []int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := g.gaps
	g.gaps = nil
	return out
}

// honestProver is a device without a simulated MCU: it answers every
// request through protocol.FastResponder, so after its first full
// measurement every fast-permitted round costs it O(1).
type honestProver struct {
	tc        *transport.Conn
	fr        *protocol.FastResponder
	mu        sync.Mutex // held while answering; hold keeps it to pause the prover
	held      bool       // hold has mu (touched only by the goroutine running the workload)
	responses atomic.Uint64
	requests  atomic.Uint64
	first     atomic.Int64 // when the first request arrived, Unix ns; 0 before
	gaps      gapRecorder
	done      chan struct{}
}

func dialProver(addr, id string, golden []byte, deadline time.Time) (*honestProver, error) {
	nc, err := dialRetry(addr, deadline)
	if err != nil {
		return nil, err
	}
	return startProver(nc, id, golden)
}

// startProver sends the hello on nc and starts reading requests. The
// prover starts held: it counts requests but answers none until the first
// resume, so the set-up clock stops on the daemon's first request to every
// prover, not on when one prover's full MAC lets another's goroutine run.
func startProver(nc net.Conn, id string, golden []byte) (*honestProver, error) {
	p := &honestProver{
		tc:   transport.NewConn(nc, transport.Options{}),
		fr:   protocol.NewFastResponder(deviceKey(id), golden),
		done: make(chan struct{}),
	}
	p.hold()
	if err := p.tc.Send(helloFrame(id)); err != nil {
		p.release()
		nc.Close()
		return nil, fmt.Errorf("hello from %s: %w", id, err)
	}
	go p.serve()
	return p, nil
}

func (p *honestProver) serve() {
	defer close(p.done)
	var (
		req  protocol.AttReq
		resp protocol.AttResp
		out  []byte
	)
	for {
		frame, err := p.tc.RecvShared()
		if err != nil {
			return
		}
		now := time.Now()
		p.gaps.record(now)
		if protocol.DecodeAttReqInto(frame, &req) != nil {
			continue
		}
		if p.first.Load() == 0 {
			p.first.Store(now.UnixNano())
		}
		p.requests.Add(1)
		p.mu.Lock()
		p.fr.RespondInto(&req, &resp)
		out = resp.AppendEncode(out[:0])
		err = p.tc.Send(out)
		if err == nil {
			p.responses.Add(1)
		}
		p.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// lastFirst reports whether every prover of ps has received a request, and
// when the last of them received its first.
func lastFirst(ps ...*honestProver) (time.Time, bool) {
	var last int64
	for _, p := range ps {
		f := p.first.Load()
		if f == 0 {
			return time.Time{}, false
		}
		last = max(last, f)
	}
	return time.Unix(0, last), true
}

// hold pauses the prover after any response in progress and returns the
// number it has sent; release resumes it.
func (p *honestProver) hold() uint64 {
	p.mu.Lock()
	p.held = true
	return p.responses.Load()
}

func (p *honestProver) release() {
	p.held = false
	p.mu.Unlock()
}

func (p *honestProver) close() {
	p.tc.Close()
	if p.held {
		p.release()
	}
	<-p.done
}

// flooder is the hostile session atk-0: it writes pre-encoded batches of
// gate frames with no pacing, so TCP backpressure from the daemon's read
// loop sets the rate, and drains (and ignores) the requests the daemon
// issues to it.
type flooder struct {
	nc      net.Conn
	tc      *transport.Conn
	batches [][]byte
	next    int // batch the writer starts with; only the writer touches it while running
	sent    atomic.Uint64
	stop    chan struct{} // nil while the writer is stopped
	wdone   chan struct{}
	rdone   chan struct{}
	werr    error // set by the writer before wdone closes
}

func dialFlooder(addr, id string, seed int64, deadline time.Time) (*flooder, error) {
	nc, err := dialRetry(addr, deadline)
	if err != nil {
		return nil, err
	}
	f := &flooder{
		nc:      nc,
		tc:      transport.NewConn(nc, transport.Options{}),
		batches: gateStream(seed, 3, floodBatch),
		rdone:   make(chan struct{}),
	}
	if err := f.tc.Send(helloFrame(id)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("hello from %s: %w", id, err)
	}
	go func() {
		defer close(f.rdone)
		for {
			if _, err := f.tc.RecvShared(); err != nil {
				return
			}
		}
	}()
	return f, nil
}

func (f *flooder) start() {
	if f.stop != nil || f.werr != nil {
		return
	}
	f.stop, f.wdone = make(chan struct{}), make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		for ; ; f.next++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.nc.Write(f.batches[f.next%len(f.batches)]); err != nil {
				f.werr = err
				return
			}
			f.sent.Add(floodBatch)
		}
	}(f.stop, f.wdone)
}

// halt stops the writer and returns the number of frames it has written.
func (f *flooder) halt() (uint64, error) {
	if f.stop != nil {
		close(f.stop)
		<-f.wdone
		f.stop = nil
	}
	return f.sent.Load(), f.werr
}

func (f *flooder) close() {
	f.nc.Close()
	_, _ = f.halt() // the write error of a closed socket is expected here
	<-f.rdone
}

// floodTraffic is gate_flood and tier_flood: an honest dev-0 and the
// hostile atk-0 on two connections.
type floodTraffic struct {
	seed   int64
	tiered bool
	golden []byte
	dev    *honestProver
	atk    *flooder
	hot    bool // the hostile writer runs outside quiet points
}

func (t *floodTraffic) connect(addr string, deadline time.Time) error {
	var err error
	if t.dev, err = dialProver(addr, "dev-0", t.golden, deadline); err != nil {
		return err
	}
	t.atk, err = dialFlooder(addr, "atk-0", t.seed, deadline)
	return err
}

func (t *floodTraffic) served() (time.Time, bool) { return lastFirst(t.dev) }
func (t *floodTraffic) responded() bool           { return t.dev.responses.Load() > 0 }

func (t *floodTraffic) startHostile() {
	t.hot = true
	t.atk.start()
}

func (t *floodTraffic) counters() genCounters {
	return genCounters{proverFrames: t.dev.requests.Load(), gaps: t.dev.gaps.take()}
}

func (t *floodTraffic) quiet(d *daemon) (point, error) {
	h, err := t.atk.halt()
	r := t.dev.hold()
	if err != nil {
		return point{}, fmt.Errorf("hostile writer: %w", err)
	}
	s, err := waitFrames(d, r+h)
	return point{t: time.Now(), series: s, answered: r, hostile: h}, err
}

func (t *floodTraffic) resume() {
	t.dev.release()
	if t.hot {
		t.atk.start()
	}
}

func (t *floodTraffic) account(from, to *point) account {
	d := func(name string) float64 { return to.series[name] - from.series[name] }
	rej := func(cause string) float64 { return rejects(to.series, cause) - rejects(from.series, cause) }
	r, h := to.answered-from.answered, to.hostile-from.hostile
	a := account{attempted: r + h}
	frames, accepted := d("attestd_frames_total"), d("attestd_responses_accepted_total")
	total := sumFamily(to.series, "attestd_rejects_total") - sumFamily(from.series, "attestd_rejects_total")
	gate := rej("unsolicited") + rej("malformed_response") + rej("unknown_kind")
	a.check(frames == float64(r+h), "daemon read %.0f frames, the generator sent %d", frames, r+h)
	if t.tiered {
		limited := rej("tier_limited")
		bulk := d(`attestd_tier_admitted_total{tier="bulk"}`)
		a.check(limited+bulk == float64(h), "tier_limited %.0f + bulk admitted %.0f != %d hostile frames", limited, bulk, h)
		a.check(gate == bulk, "bulk admitted %.0f hostile frames but the gate rejected %.0f", bulk, gate)
		a.check(total == limited+gate, "rejects of other causes: %s", causes(to.series))
		limit := 1.25*bulkRate*to.t.Sub(from.t).Seconds() + bulkBurst
		a.check(bulk <= limit, "bulk admitted %.0f frames, over 1.25 × budget + burst = %.0f", bulk, limit)
		a.failed += absDiff(h, limited+gate)
	} else {
		a.check(gate == float64(h) && total == float64(h),
			"reject causes add up to %.0f (%.0f unsolicited/malformed/unknown), hostile frames read %d", total, gate, h)
		a.failed += absDiff(h, gate)
	}
	a.check(accepted == float64(r), "daemon accepted %.0f rounds, the honest prover answered %d", accepted, r)
	a.failed += absDiff(r, accepted)
	return a
}

func (t *floodTraffic) close() {
	if t.atk != nil {
		t.atk.close()
	}
	if t.dev != nil {
		t.dev.close()
	}
}

// fleetTraffic is quiescent_fleet: honest provers only.
type fleetTraffic struct {
	golden []byte
	n      int
	devs   []*honestProver
}

func (t *fleetTraffic) connect(addr string, deadline time.Time) error {
	// Dial every prover before the first hello, so the sessions start
	// together rather than one behind the other's first full MAC.
	var conns []net.Conn
	for i := 0; i < t.n; i++ {
		nc, err := dialRetry(addr, deadline)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return err
		}
		conns = append(conns, nc)
	}
	for i, nc := range conns {
		p, err := startProver(nc, fmt.Sprintf("dev-%d", i), t.golden)
		if err != nil {
			for _, c := range conns[i:] {
				c.Close()
			}
			return err
		}
		t.devs = append(t.devs, p)
	}
	return nil
}

func (t *fleetTraffic) served() (time.Time, bool) { return lastFirst(t.devs...) }

func (t *fleetTraffic) responded() bool {
	for _, p := range t.devs {
		if p.responses.Load() == 0 {
			return false
		}
	}
	return true
}

func (t *fleetTraffic) startHostile() {}

func (t *fleetTraffic) counters() genCounters {
	var c genCounters
	for _, p := range t.devs {
		c.proverFrames += p.requests.Load()
		c.gaps = append(c.gaps, p.gaps.take()...)
	}
	return c
}

func (t *fleetTraffic) quiet(d *daemon) (point, error) {
	var r uint64
	for _, p := range t.devs {
		r += p.hold()
	}
	s, err := waitFrames(d, r)
	return point{t: time.Now(), series: s, answered: r}, err
}

func (t *fleetTraffic) resume() {
	for _, p := range t.devs {
		p.release()
	}
}

func (t *fleetTraffic) account(from, to *point) account {
	r := to.answered - from.answered
	a := account{attempted: r}
	frames := to.series["attestd_frames_total"] - from.series["attestd_frames_total"]
	accepted := to.series["attestd_responses_accepted_total"] - from.series["attestd_responses_accepted_total"]
	total := sumFamily(to.series, "attestd_rejects_total") - sumFamily(from.series, "attestd_rejects_total")
	a.check(frames == float64(r), "daemon read %.0f frames, the provers sent %d", frames, r)
	a.check(total == 0, "daemon rejected %.0f frames of an honest fleet (totals: %s)", total, causes(to.series))
	a.check(accepted == float64(r), "daemon accepted %.0f rounds, the provers answered %d", accepted, r)
	a.failed += absDiff(r, accepted)
	return a
}

func (t *fleetTraffic) close() {
	for _, p := range t.devs {
		p.close()
	}
}

// proverTraffic is prover_flood: a real agent.Agent (simulated MCU and
// trust anchor) behind a man-in-the-middle relay. The relay forwards both
// directions, giving the daemon's frames priority, and injects the
// impersonator's frames toward the agent with no pacing. The relay↔agent
// sockets have 4 KiB buffers, so at most a few KiB of hostile frames queue
// ahead of a genuine request.
type proverTraffic struct {
	seed int64
	mix  *proverMix
	ag   *agent.Agent

	cancel   context.CancelFunc
	up       *transport.Conn // relay ↔ daemon
	down     net.Conn        // the relay's end of relay ↔ agent
	downTC   *transport.Conn // reads the agent's frames off down
	requests chan []byte     // daemon frames waiting for the writer
	ctl      chan relayCmd
	quit     chan struct{}
	wdone    chan struct{}
	wg       sync.WaitGroup

	delivered atomic.Uint64    // genuine requests written to the agent
	first     atomic.Int64     // when the first was, Unix ns; 0 before
	injected  [3]atomic.Uint64 // hostile frames written to the agent, by kind
	responses atomic.Uint64    // agent responses forwarded to the daemon
	gaps      gapRecorder
	werr      error // set by the writer before wdone closes
	hot       bool  // injection runs outside quiet points
}

// relayMode is what the relay writer does.
type relayMode int

const (
	relayForward relayMode = iota // forward the daemon's frames only
	relayInject                   // forward, and inject between them
	relayHold                     // write nothing; the daemon's frames wait
)

type relayCmd struct {
	mode relayMode
	ack  chan struct{}
}

func (t *proverTraffic) connect(addr string, deadline time.Time) (err error) {
	t.mix = newProverMix(t.seed)
	t.requests = make(chan []byte, relayQueue)
	t.ctl = make(chan relayCmd)
	t.quit = make(chan struct{})
	t.wdone = make(chan struct{})

	var opened []net.Conn
	defer func() {
		if err != nil {
			for _, c := range opened {
				c.Close()
			}
		}
	}()
	lc := net.ListenConfig{Control: smallSocket}
	ln, err := lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	dialer := net.Dialer{Control: smallSocket}
	agentSide, err := dialer.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return err
	}
	opened = append(opened, agentSide)
	relaySide, err := ln.Accept()
	ln.Close()
	if err != nil {
		return err
	}
	opened = append(opened, relaySide)
	upNC, err := dialRetry(addr, deadline)
	if err != nil {
		return err
	}
	opened = append(opened, upNC)
	t.ag, err = agent.New(agent.Config{
		DeviceID:     "dev-0",
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: []byte(benchMaster),
	})
	if err != nil {
		return err
	}
	t.up = transport.NewConn(upNC, transport.Options{})
	t.down = relaySide
	t.downTC = transport.NewConn(relaySide, transport.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	t.wg.Add(4)
	go func() {
		defer t.wg.Done()
		_ = t.ag.Serve(ctx, agentSide) // ends with the relay's teardown
	}()
	go t.pumpUp()
	go t.pumpDown()
	go t.writeLoop()
	return nil
}

// smallSocket gives a relay↔agent socket 4 KiB buffers before it
// connects. The segment size shrinks with them: loopback's 64 KiB default
// is larger than the whole window, and the receiver would then hold its
// window updates back for the delayed-ACK timer.
func smallSocket(_, _ string, c syscall.RawConn) error {
	var serr error
	err := c.Control(func(fd uintptr) {
		for _, o := range [][3]int{
			{syscall.SOL_SOCKET, syscall.SO_RCVBUF, relayBuf},
			{syscall.SOL_SOCKET, syscall.SO_SNDBUF, relayBuf},
			{syscall.IPPROTO_TCP, syscall.TCP_MAXSEG, relayMSS},
		} {
			if serr = syscall.SetsockoptInt(int(fd), o[0], o[1], o[2]); serr != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	return serr
}

// pumpUp forwards the agent's frames (hello, responses, stats) to the daemon.
func (t *proverTraffic) pumpUp() {
	defer t.wg.Done()
	for {
		f, err := t.downTC.RecvShared()
		if err != nil {
			return
		}
		resp := protocol.ClassifyFrame(f) == protocol.FrameAttResp
		if err := t.up.Send(f); err != nil {
			return
		}
		if resp {
			t.responses.Add(1)
		}
	}
}

// pumpDown queues the daemon's frames for the writer.
func (t *proverTraffic) pumpDown() {
	defer t.wg.Done()
	for {
		f, err := t.up.RecvShared()
		if err != nil {
			return
		}
		select {
		case t.requests <- append([]byte(nil), f...):
		case <-t.quit:
			return
		}
	}
}

// writeLoop is the relay's only writer toward the agent. A queued daemon
// frame always goes before the next hostile batch.
func (t *proverTraffic) writeLoop() {
	defer t.wg.Done()
	defer close(t.wdone)
	var genuine, batch []byte
	mode := relayForward
	n := 0
	deliver := func(f []byte) error {
		if err := t.downTC.Send(f); err != nil {
			return err
		}
		if protocol.ClassifyFrame(f) == protocol.FrameAttReq {
			genuine = f // a fresh copy, never written to again
			now := time.Now()
			if t.first.Load() == 0 {
				t.first.Store(now.UnixNano())
			}
			t.delivered.Add(1)
			t.gaps.record(now)
		}
		return nil
	}
	inject := func() error {
		batch = batch[:0]
		var counts [3]uint64
		for i := 0; i < injectBatch; i++ {
			k, f := t.mix.frame(n, genuine)
			n++
			batch = transport.AppendFrame(batch, f)
			counts[k]++
		}
		if _, err := t.down.Write(batch); err != nil {
			return err
		}
		for k, c := range counts {
			t.injected[k].Add(c)
		}
		return nil
	}
	for {
		var err error
		requests := t.requests
		if mode == relayHold {
			requests = nil
		}
		select {
		case f := <-requests:
			err = deliver(f)
		case c := <-t.ctl:
			mode = c.mode
			close(c.ack)
		case <-t.quit:
			return
		default:
			if mode == relayInject {
				err = inject()
				break
			}
			select {
			case f := <-requests:
				err = deliver(f)
			case c := <-t.ctl:
				mode = c.mode
				close(c.ack)
			case <-t.quit:
				return
			}
		}
		if err != nil {
			t.werr = err
			return
		}
	}
}

// command hands a mode to the writer and waits until it applies: after
// that, the writer starts no write of the previous mode.
func (t *proverTraffic) command(m relayMode) error {
	c := relayCmd{mode: m, ack: make(chan struct{})}
	select {
	case t.ctl <- c:
		<-c.ack
		return nil
	case <-t.wdone:
		return fmt.Errorf("relay writer stopped: %v", t.werr)
	}
}

func (t *proverTraffic) served() (time.Time, bool) {
	f := t.first.Load()
	return time.Unix(0, f), f != 0
}
func (t *proverTraffic) responded() bool { return t.responses.Load() > 0 }

func (t *proverTraffic) startHostile() {
	t.hot = true
	_ = t.command(relayInject) // a failed writer is reported by the next quiet point
}

func (t *proverTraffic) counters() genCounters {
	st := t.ag.Snapshot()
	return genCounters{proverFrames: st.FramesIn, agent: &st, gaps: t.gaps.take()}
}

func (t *proverTraffic) quiet(d *daemon) (point, error) {
	if err := t.command(relayHold); err != nil {
		return point{}, err
	}
	p := point{delivered: t.delivered.Load()}
	var inj uint64
	for k := range t.injected {
		p.injected[k] = t.injected[k].Load()
		inj += p.injected[k]
	}
	deadline := time.Now().Add(drainTimeout)
	for {
		p.agent = t.ag.Snapshot()
		p.answered = t.responses.Load()
		if p.agent.FramesIn == p.delivered+inj && p.agent.Measurements == p.delivered && p.answered == p.delivered {
			break
		}
		if time.Now().After(deadline) {
			return p, fmt.Errorf("%w waiting for the agent: gated %d of %d frames, measured %d of %d, forwarded %d responses",
				errTimeout, p.agent.FramesIn, p.delivered+inj, p.agent.Measurements, p.delivered, p.answered)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var err error
	p.series, err = waitFor(d, "the daemon to verify every forwarded response", func(s map[string]float64) bool {
		return s["attestd_responses_accepted_total"]+rejects(s, "bad_measurement") >= float64(p.answered)
	})
	p.t = time.Now()
	return p, err
}

func (t *proverTraffic) resume() {
	m := relayForward
	if t.hot {
		m = relayInject
	}
	_ = t.command(m) // a failed writer is reported by the next quiet point
}

func (t *proverTraffic) account(from, to *point) account {
	hd := to.delivered - from.delivered
	var inj [3]uint64
	var injTotal uint64
	for k := range inj {
		inj[k] = to.injected[k] - from.injected[k]
		injTotal += inj[k]
	}
	a := account{attempted: hd + injTotal}
	accepted := to.series["attestd_responses_accepted_total"] - from.series["attestd_responses_accepted_total"]
	badMeasure := rejects(to.series, "bad_measurement") - rejects(from.series, "bad_measurement")
	fa, ta := &from.agent, &to.agent
	gated := [3]uint64{ta.AuthRejected - fa.AuthRejected, ta.FreshnessRejected - fa.FreshnessRejected, ta.Malformed - fa.Malformed}
	a.check(ta.FramesIn-fa.FramesIn == hd+injTotal, "agent gated %d frames, the relay delivered %d", ta.FramesIn-fa.FramesIn, hd+injTotal)
	a.check(ta.Measurements-fa.Measurements == hd, "agent measured %d times for %d genuine requests", ta.Measurements-fa.Measurements, hd)
	for k := range gated {
		a.check(gated[k] == inj[k], "agent rejected %d %s frames, the relay injected %d", gated[k], proverKindNames[k], inj[k])
		a.failed += absDiff(inj[k], float64(gated[k]))
	}
	a.check(ta.Faults == fa.Faults, "agent saw %d bus faults", ta.Faults-fa.Faults)
	a.check(badMeasure == 0, "daemon rejected %.0f measurements", badMeasure)
	a.check(accepted == float64(hd), "daemon accepted %.0f rounds for %d genuine requests delivered", accepted, hd)
	a.failed += absDiff(hd, accepted)
	return a
}

func (t *proverTraffic) close() {
	if t.cancel == nil {
		return
	}
	t.cancel()
	close(t.quit)
	t.up.Close()
	t.down.Close()
	t.wg.Wait()
}
