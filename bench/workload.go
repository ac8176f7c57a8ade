package main

import (
	"fmt"
	"slices"
	"time"
)

// Load shape shared by the workloads.
const (
	floodBatch  = 256  // hostile frames per write toward the daemon
	bulkRate    = 400  // tier_flood: the bulk tier's frames/s budget
	bulkBurst   = 400  // tier_flood: the bulk tier's bucket depth
	relayBuf    = 4096 // prover_flood: relay↔agent socket buffers, bytes
	relayMSS    = 1024 // prover_flood: relay↔agent segment size
	injectBatch = 16   // prover_flood: hostile frames per write toward the agent
	// relayQueue holds daemon frames while the relay writer is busy; the
	// daemon sends one request per 20 ms period, so it never fills.
	relayQueue = 16
)

// workload is one traffic mix. The reasons for each are in BENCHMARK.json
// and bench/README.md.
type workload struct {
	name   string
	period time.Duration // attestd -attest-every
	flags  []string      // attestd flags beyond the common ones (startDaemon)
	honest int           // honest provers: verified rounds scheduled = honest × T / period
	// sessions is the number of device sessions the daemon issues
	// requests to, honest or not.
	sessions int
	// batch is the number of frames per write on the daemon-bound hostile
	// stream; 1 when the workload has none (its frames are one per write).
	batch int
	// daemonBound marks a workload whose gate rate the daemon's CPU sets:
	// the generator must use less CPU than the daemon (else the load
	// generator was the bottleneck), and gate_frames_per_s is scaled to
	// the reference CPU speed (speed.go). Elsewhere the daemon's schedule
	// sets the rate, and scaling it would only add the probe's noise.
	daemonBound bool
	// minFastShare is the share of accepted rounds that must take the
	// O(1) fast path (0 = not checked).
	minFastShare float64
	traffic      func(seed int64, golden []byte) traffic
}

// fastPath reports whether the daemon grants the O(1) fast path.
func (w *workload) fastPath() bool { return slices.Contains(w.flags, "-fastpath") }

func floodFlags(period time.Duration) []string {
	return []string{"-fastpath", "-attest-every", period.String(), "-request-timeout", "1s", "-max-inflight", "1024"}
}

var workloads = []*workload{
	{
		name:        "gate_flood",
		period:      5 * time.Millisecond,
		flags:       floodFlags(5 * time.Millisecond),
		honest:      1,
		sessions:    2,
		batch:       floodBatch,
		daemonBound: true,
		traffic: func(seed int64, golden []byte) traffic {
			return &floodTraffic{seed: seed, golden: golden}
		},
	},
	{
		name:   "tier_flood",
		period: 5 * time.Millisecond,
		flags: append(floodFlags(5*time.Millisecond),
			"-tier", "gold:class=1,match=dev-",
			"-tier", fmt.Sprintf("bulk:class=2,match=atk-,rate=%d,burst=%d", bulkRate, bulkBurst),
			"-default-tier", "bulk"),
		honest:      1,
		sessions:    2,
		batch:       floodBatch,
		daemonBound: true,
		traffic: func(seed int64, golden []byte) traffic {
			return &floodTraffic{seed: seed, golden: golden, tiered: true}
		},
	},
	{
		name:   "quiescent_fleet",
		period: time.Millisecond,
		// Fast responses the daemon refuses while the fast path settles
		// (fastSettled) keep their in-flight slots until the request
		// times out. With the default 10 s timeout, one start-up could
		// leave the in-flight cap full and throttle half the ticks for the
		// first 10 s of the measured phase; in the steady state no
		// request times out, so the timeout changes nothing else.
		flags:        []string{"-fastpath", "-attest-every", "1ms", "-request-timeout", "1s"},
		honest:       2,
		sessions:     2,
		batch:        1,
		minFastShare: 0.99,
		traffic: func(seed int64, golden []byte) traffic {
			return &fleetTraffic{golden: golden, n: 2}
		},
	},
	{
		name:     "prover_flood",
		period:   20 * time.Millisecond,
		flags:    []string{"-attest-every", "20ms"},
		honest:   1,
		sessions: 1,
		batch:    1,
		traffic: func(seed int64, golden []byte) traffic {
			return &proverTraffic{seed: seed}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
