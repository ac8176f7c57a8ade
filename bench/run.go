package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"time"
)

// Shape of one run.
const (
	// setupRepeats daemons are started per run; setup_s is the median of
	// their set-up times, at the reference CPU speed, and the last one is
	// measured. One set-up takes 5–40 ms and the first of a run is slower
	// (the binary's pages are cold), so many repeats cost little and
	// steady the median.
	setupRepeats = 21
	// settle is how long the full traffic mix runs before the accounting
	// starts; catchUp lets the provers answer what queued while the
	// generator was held for that start point.
	settle  = time.Second
	catchUp = 250 * time.Millisecond
	// rejectFree is how long a workload that needs the fast path must run
	// without a reject before the accounting starts (fastSettled).
	rejectFree = 500 * time.Millisecond
	// window is the length of the windows the measured phase is split
	// into (at least minWindows); rate and ratio metrics are the median
	// over windows, so a short stall elsewhere on the host moves one
	// window, not the result.
	window       = time.Second
	minWindows   = 5
	setupTimeout = 30 * time.Second
	// pollEvery is how often set-up and quiet points poll; a sleep that
	// short lasts about a millisecond. spinFor is how long dialRetry
	// retries without sleeping.
	pollEvery = 100 * time.Microsecond
	spinFor   = 10 * time.Millisecond
)

// runResult is one run of one workload.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Correct   bool     `json:"correct"`
	Failures  []string `json:"failures,omitempty"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	// Metrics holds every metric the run computed, end-to-end and per-layer.
	Metrics map[string]float64 `json:"metrics"`

	// first and last bound the measured phase; the traced replay
	// subtracts its child spans from the daemon's CPU between them, both
	// at the reference speed (probeNs: the mean probe over the phase).
	first, last sample
	probeNs     float64
}

// sample is one reading of every counter the benchmark uses, taken at a
// window boundary.
type sample struct {
	t       time.Time
	daemon  procSample
	gen     procSample
	series  map[string]float64
	numGC   uint64
	traffic genCounters

	// The daemon's allocation count is read twice, around a second
	// scrape. Between the two reads the daemon allocates what one sample
	// costs it (sampleAllocs); between the second read here and the first
	// read of the next sample, the traffic plus one sample's worth.
	mallocs, mallocsEnd uint64
	sampleAllocs        float64

	// mean probe ns on the daemon's CPUs since the previous sample (speed.go)
	daemonProbe float64
}

func takeSample(pr *prober, d *daemon, tr traffic) (sample, error) {
	var s sample
	var err error
	if s.daemonProbe, err = pr.take(); err != nil {
		return s, err
	}
	s.t = time.Now()
	if s.daemon, err = readProc(d.pid()); err != nil {
		return s, fmt.Errorf("reading attestd's /proc: %w", err)
	}
	if s.gen, err = readProc(os.Getpid()); err != nil {
		return s, fmt.Errorf("reading the generator's /proc: %w", err)
	}
	s.traffic = tr.counters()
	if s.series, err = d.scrape(); err != nil {
		return s, err
	}
	if s.mallocs, s.numGC, err = d.memStats(); err != nil {
		return s, err
	}
	if _, err = d.scrape(); err != nil {
		return s, err
	}
	if s.mallocsEnd, _, err = d.memStats(); err != nil {
		return s, err
	}
	s.sampleAllocs = float64(s.mallocsEnd - s.mallocs)
	return s, nil
}

// runWorkload runs one workload once: set-up (repeated), settle, the
// measured phase, and the exact accounting of everything sent between the
// quiet points before and after it.
func runWorkload(env *env, w *workload, seed int64, seconds float64) (*runResult, error) {
	var (
		d      *daemon
		tr     traffic
		setups []float64
		probes float64
	)

	for i := 0; i < setupRepeats; i++ {
		// The host's speed during set-up, probed between set-ups so that
		// no probe runs inside one (speed.go).
		ns, err := env.place.probe()
		if err != nil {
			return nil, err
		}
		probes += ns
		var secs float64
		if d, tr, secs, err = setUp(env, w, seed); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		if i < setupRepeats-1 {
			tr.close()
			d.stop()
		}
	}
	defer d.stop()
	defer tr.close()

	tr.startHostile()
	time.Sleep(settle)
	if w.minFastShare > 0 {
		if err := fastSettled(d); err != nil {
			return nil, d.failure(err)
		}
	}
	base, err := tr.quiet(d)
	if err != nil {
		return nil, d.failure(err)
	}
	tr.resume()
	time.Sleep(catchUp)
	samples, gaps, err := measure(env.place, d, tr, seconds)
	if err != nil {
		return nil, d.failure(err)
	}
	end, err := tr.quiet(d)
	if err != nil {
		return nil, d.failure(err)
	}
	acct := tr.account(&base, &end)

	res := &runResult{
		Workload:  w.name,
		Seed:      seed,
		Attempted: acct.attempted,
		Failed:    acct.failed,
		Failures:  acct.failures,
		first:     samples[0],
		last:      samples[len(samples)-1],
	}
	for _, s := range samples[1:] {
		res.probeNs += s.daemonProbe / float64(len(samples)-1)
	}
	res.Metrics = phaseMetrics(w, samples, gaps)
	res.Metrics["attestd.setup_s"] = median(setups)
	res.Metrics["setup_s"] = median(setups) / slowdown(probes/setupRepeats)
	m := res.Metrics
	if w.minFastShare > 0 && !(m["server.fast_share"] >= w.minFastShare) {
		res.Failures = append(res.Failures, fmt.Sprintf("fast_share %.4f below %.2f", m["server.fast_share"], w.minFastShare))
	}
	if w.daemonBound && !(m["gen.cpu_cores_busy"] < m["attestd.cpu_cores_busy"]) {
		res.Failures = append(res.Failures, fmt.Sprintf("generator busy %.3f cores, not below attestd's %.3f: the load generator is the bottleneck",
			m["gen.cpu_cores_busy"], m["attestd.cpu_cores_busy"]))
	}
	for _, spec := range env.spec.EndToEnd {
		if v, ok := m[spec.Name]; !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Failures = append(res.Failures, fmt.Sprintf("%s is %v", spec.Name, v))
		}
	}
	res.Correct = len(res.Failures) == 0
	return res, nil
}

// setUp starts a daemon and connects the workload's traffic. The set-up
// time runs from the daemon's start until every honest prover has received
// its first request, i.e. until the daemon serves every session; the
// provers answer nothing until then. setUp then releases them and waits,
// untimed, until every honest prover has one verified round:
// on quiescent_fleet that first round queues behind a backlog of full-MAC
// rounds whose length swings severalfold with host speed. A daemon that
// exits during set-up (a port taken between reservation and bind) is
// retried.
func setUp(env *env, w *workload, seed int64) (*daemon, traffic, float64, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := startDaemon(env.place, env.attestd, w.flags)
		if err != nil {
			return nil, nil, 0, err
		}
		tr := w.traffic(seed, env.golden)
		secs, err := waitReady(d, w, tr)
		if err == nil {
			return d, tr, secs, nil
		}
		exited := !d.alive()
		tr.close()
		d.stop()
		lastErr = d.failure(fmt.Errorf("set-up of %s: %w", w.name, err))
		if !exited {
			break // the daemon is up, so retrying would only hide the failure
		}
	}
	return nil, nil, 0, lastErr
}

// waitReady times one set-up. Both of its ends are events, not polls: the
// daemon's log line before it listens starts the dials, and each prover
// stamps the arrival of its first request.
func waitReady(d *daemon, w *workload, tr traffic) (float64, error) {
	deadline := d.started.Add(setupTimeout)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for listening := false; !listening; {
		select {
		case <-d.log.listening:
			listening = true
		case <-tick.C:
			if err := readyCheck(d, deadline); err != nil {
				return 0, err
			}
		}
	}
	if err := tr.connect(d.addr, deadline); err != nil {
		return 0, err
	}
	var last time.Time
	for ok := false; !ok; last, ok = tr.served() {
		if err := readyCheck(d, deadline); err != nil {
			return 0, err
		}
		time.Sleep(pollEvery)
	}
	secs := last.Sub(d.started).Seconds()
	if os.Getenv("BENCH_DEBUG") != "" {
		fmt.Fprintf(os.Stderr, "SETUPONE %.6f\n", secs)
	}
	tr.resume()
	for {
		if tr.responded() {
			s, err := d.scrape()
			if err == nil && s["attestd_responses_accepted_total"] >= float64(w.honest) {
				return secs, nil
			}
		}
		if err := readyCheck(d, deadline); err != nil {
			return 0, err
		}
		time.Sleep(time.Millisecond)
	}
}

// fastSettled waits until the daemon has rejected and throttled nothing
// for rejectFree. attestd grants fast-path permission while a full-MAC
// round is still outstanding (README, Correctness), so until the provers
// have caught up with the start-up backlog of full MACs some fast
// responses are refused, and on a slow host that can outlast the settle
// time. Each refused response holds its in-flight slot until its request
// times out; enough of them throttle the issue loop until then.
func fastSettled(d *daemon) error {
	deadline := time.Now().Add(drainTimeout)
	last, since := -1.0, time.Now()
	for {
		s, err := d.scrape()
		if err != nil {
			return err
		}
		if r := sumFamily(s, "attestd_rejects_total") + s["attestd_inflight_throttled_total"]; r != last {
			last, since = r, time.Now()
		}
		if time.Since(since) >= rejectFree {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w waiting for the fast path to settle (rejects: %s)", errTimeout, causes(s))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func readyCheck(d *daemon, deadline time.Time) error {
	if !d.alive() {
		return errors.New("attestd exited")
	}
	if time.Now().After(deadline) {
		return errTimeout
	}
	return nil
}

// measure takes windows+1 samples spread evenly over the phase and
// collects the request gaps the provers saw during it.
func measure(place placement, d *daemon, tr traffic, seconds float64) ([]sample, []int64, error) {
	pr := startProber(place)
	defer pr.close()
	phase := time.Duration(seconds * float64(time.Second))
	windows := max(minWindows, int(phase/window))
	win := phase / time.Duration(windows)
	start := time.Now()
	var (
		samples []sample
		gaps    []int64
	)
	for i := 0; i <= windows; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * win)))
		s, err := takeSample(pr, d, tr)
		if err != nil {
			return nil, nil, err
		}
		if i > 0 {
			gaps = append(gaps, s.traffic.gaps...)
		}
		samples = append(samples, s)
	}
	return samples, gaps, nil
}

// phaseMetrics computes every metric of the untraced run: the median over
// windows of each windowed metric, plus the whole-phase ones.
func phaseMetrics(w *workload, samples []sample, gaps []int64) map[string]float64 {
	perWindow := make(map[string][]float64)
	for i := 1; i < len(samples); i++ {
		for name, v := range windowMetrics(w, &samples[i-1], &samples[i]) {
			perWindow[name] = append(perWindow[name], v)
		}
	}
	m := make(map[string]float64)
	if os.Getenv("BENCH_DEBUG") != "" {
		sanitized := make(map[string][]float64)
		for k, vs := range perWindow {
			for _, v := range vs {
				sanitized[k] = append(sanitized[k], finite(v))
			}
		}
		b, _ := json.Marshal(sanitized)
		fmt.Fprintf(os.Stderr, "DBG %s\n", b)
	}
	for name, vs := range perWindow {
		m[name] = median(vs)
	}
	m["daemon_rss_mib"] = float64(samples[len(samples)-1].daemon.hwmKiB) / 1024
	g := make([]float64, len(gaps))
	for i, ns := range gaps {
		g[i] = float64(ns) / 1e3
	}
	m["server.req_gap_us_p50"] = percentile(g, 0.50)
	m["server.req_gap_us_p99"] = percentile(g, 0.99)
	return m
}

// windowMetrics computes every windowed metric between adjacent samples a
// and b.
func windowMetrics(w *workload, a, b *sample) map[string]float64 {
	delta := func(name string) float64 { return b.series[name] - a.series[name] }
	family := func(name string) float64 { return sumFamily(b.series, name) - sumFamily(a.series, name) }
	dt := b.t.Sub(a.t).Seconds()
	frames := delta("attestd_frames_total")
	accepted := delta("attestd_responses_accepted_total")
	cpuNs := float64(b.daemon.cpuNs - a.daemon.cpuNs)
	syscr := float64(b.daemon.syscr - a.daemon.syscr)
	utime, stime := float64(b.daemon.utime-a.daemon.utime), float64(b.daemon.stime-a.daemon.stime)
	ticks := dt / w.period.Seconds()
	allocs := float64(b.mallocs-a.mallocsEnd) - (a.sampleAllocs+b.sampleAllocs)/2
	// How much slower than at the reference speed the daemon ran (speed.go).
	daemonSlow := slowdown(b.daemonProbe)
	gateRate := frames / dt
	gate := gateRate
	if w.daemonBound {
		gate *= daemonSlow
	}

	m := map[string]float64{
		"gate_frames_per_s":       gate,
		"daemon_allocs_per_round": div(allocs, accepted),
		"rounds_on_time":          accepted / (float64(w.honest) * ticks),

		"attestd.frames_per_s":             gateRate,
		"host.daemon_cpu_probe_ns":         b.daemonProbe,
		"prover.frames_per_s":              float64(b.traffic.proverFrames-a.traffic.proverFrames) / dt,
		"attestd.cpu_ns_per_frame":         div(cpuNs/daemonSlow, frames),
		"attestd.cpu_us_per_round":         div(cpuNs/1e3/daemonSlow, accepted),
		"attestd.allocs_per_frame":         div(allocs, frames),
		"server.verdict_us_mean":           div(delta("attestd_attest_seconds_sum")*1e6, delta("attestd_attest_seconds_count")),
		"attestd.read_syscalls_per_frame":  div(syscr, frames),
		"attestd.read_bytes_per_syscall":   div(float64(b.daemon.rchar-a.daemon.rchar), syscr),
		"attestd.write_syscalls_per_round": div(float64(b.daemon.syscw-a.daemon.syscw), accepted),
		"attestd.ctx_switches_per_round":   div(float64(b.daemon.ctxSwitches-a.daemon.ctxSwitches), accepted),
		"attestd.gc_per_s":                 float64(b.numGC-a.numGC) / dt,
		"attestd.cpu_cores_busy":           cpuNs / 1e9 / dt,
		"attestd.sys_cpu_share":            div(stime, utime+stime),
		"server.admitted_share":            div(family("attestd_tier_admitted_total"), frames),
		"server.issued_per_tick":           delta("attestd_requests_issued_total") / (float64(w.sessions) * ticks),
		"server.inflight_throttled_per_s":  delta("attestd_inflight_throttled_total") / dt,
		"server.abandoned_per_s":           delta("attestd_requests_abandoned_total") / dt,
		"server.fast_share":                div(delta("attestd_responses_fast_total"), accepted),
		"gen.cpu_cores_busy":               float64(b.gen.cpuNs-a.gen.cpuNs) / 1e9 / dt,
	}
	for _, cause := range []string{"tier_limited", "unsolicited", "malformed_response", "unknown_kind"} {
		m["server.reject_share."+cause] = div(rejects(b.series, cause)-rejects(a.series, cause), frames)
	}
	m["anchor.rejected_share"] = 0
	if sa, sb := a.traffic.agent, b.traffic.agent; sa != nil && sb != nil {
		rej := (sb.AuthRejected + sb.FreshnessRejected + sb.Malformed) - (sa.AuthRejected + sa.FreshnessRejected + sa.Malformed)
		m["anchor.rejected_share"] = div(float64(rej), float64(sb.FramesIn-sa.FramesIn))
	}
	return m
}

// div is a/b, NaN when b is 0 (the window saw none of the denominator).
func div(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
