package main

import (
	"math"
	"strings"
	"testing"

	"proverattest/internal/obs"
)

func TestParseStat(t *testing.T) {
	for _, tc := range []struct {
		name         string
		in           string
		utime, stime uint64
		wantErr      bool
	}{
		{
			name:  "plain",
			in:    "4242 (attestd) S 1 4242 4242 0 -1 4194560 3044 0 0 0 1234 567 0 0 20 0 7 0 9191 1284927488 3316 18446744073709551615",
			utime: 1234, stime: 567,
		},
		{
			name:  "command with spaces and parentheses",
			in:    "17 (my (odd) cmd) R 1 17 17 0 -1 4194560 1 0 0 0 8 9 0 0 20 0 1 0 5 0 0",
			utime: 8, stime: 9,
		},
		{name: "no command", in: "17 R 1 2 3", wantErr: true},
		{name: "truncated", in: "17 (x) R 1 2 3", wantErr: true},
		{name: "bad utime", in: "17 (x) R 1 17 17 0 -1 0 1 0 0 0 u 9 0", wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, s, err := parseStat([]byte(tc.in))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parseStat(%q) = %d, %d, want an error", tc.in, u, s)
				}
				return
			}
			if err != nil || u != tc.utime || s != tc.stime {
				t.Fatalf("parseStat = %d, %d, %v; want %d, %d", u, s, err, tc.utime, tc.stime)
			}
		})
	}
}

func TestParseKV(t *testing.T) {
	io := "rchar: 3980\nwchar: 12\nsyscr: 9\nsyscw: 2\nread_bytes: 0\n"
	status := "Name:\tattestd\nState:\tS (sleeping)\nVmHWM:\t   13740 kB\nThreads:\t7\n" +
		"voluntary_ctxt_switches:\t151\nnonvoluntary_ctxt_switches:\t3\n"
	for _, tc := range []struct {
		name string
		in   string
		want map[string]uint64
		not  []string
	}{
		{name: "io", in: io, want: map[string]uint64{"rchar": 3980, "wchar": 12, "syscr": 9, "syscw": 2}},
		{
			name: "status",
			in:   status,
			want: map[string]uint64{"VmHWM": 13740, "Threads": 7, "voluntary_ctxt_switches": 151, "nonvoluntary_ctxt_switches": 3},
			not:  []string{"Name", "State"},
		},
		{name: "empty", in: "", want: map[string]uint64{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kv := parseKV([]byte(tc.in))
			for k, v := range tc.want {
				if kv[k] != v {
					t.Errorf("%s = %d, want %d", k, kv[k], v)
				}
			}
			for _, k := range tc.not {
				if _, ok := kv[k]; ok {
					t.Errorf("non-numeric key %s kept", k)
				}
			}
		})
	}
}

func TestParseSchedstat(t *testing.T) {
	if ns, err := parseSchedstat([]byte("287066 1382111 2\n")); err != nil || ns != 287066 {
		t.Fatalf("parseSchedstat = %d, %v; want 287066", ns, err)
	}
	if _, err := parseSchedstat([]byte("\n")); err == nil {
		t.Fatal("parseSchedstat accepted an empty file")
	}
}

func TestParseMemStats(t *testing.T) {
	profile := `heap profile: 1: 96 [2: 192] @ heap/1048576
1: 96 [2: 192] @ 0x1 0x2
#	0x1	main.f+0x1	/x.go:1

# runtime.MemStats
# Alloc = 1024
# TotalAlloc = 4096
# Mallocs = 2950
# Frees = 255
# NumGC = 7
# DebugGC = false
`
	for _, tc := range []struct {
		name           string
		in             string
		mallocs, numGC uint64
		wantErr        bool
	}{
		{name: "profile", in: profile, mallocs: 2950, numGC: 7},
		{name: "no trailer", in: "heap profile: 0: 0 [0: 0] @ heap/1048576\n", wantErr: true},
		{name: "bad number", in: "# Mallocs = x\n# NumGC = 1\n", wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, g, err := parseMemStats(strings.NewReader(tc.in))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parseMemStats = %d, %d, want an error", m, g)
				}
				return
			}
			if err != nil || m != tc.mallocs || g != tc.numGC {
				t.Fatalf("parseMemStats = %d, %d, %v; want %d, %d", m, g, err, tc.mallocs, tc.numGC)
			}
		})
	}
}

// TestWindowDeltas checks the per-window metrics against two expositions
// parsed by obs.ParseText, as the daemon's /metrics serves them.
func TestWindowDeltas(t *testing.T) {
	parse := func(text string) map[string]float64 {
		s, err := obs.ParseText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	first := parse(`# HELP attestd_frames_total x
# TYPE attestd_frames_total counter
attestd_frames_total 1000
attestd_responses_accepted_total 10
attestd_responses_fast_total 9
attestd_requests_issued_total 12
attestd_rejects_total{cause="unsolicited"} 300
attestd_rejects_total{cause="unknown_kind"} 300
attestd_rejects_total{cause="tier_limited"} 0
attestd_tier_admitted_total{tier="gold"} 10
attestd_tier_admitted_total{tier="bulk"} 990
`)
	last := parse(`attestd_frames_total 3000
attestd_responses_accepted_total 30
attestd_responses_fast_total 29
attestd_requests_issued_total 32
attestd_rejects_total{cause="unsolicited"} 700
attestd_rejects_total{cause="unknown_kind"} 700
attestd_rejects_total{cause="tier_limited"} 570
attestd_tier_admitted_total{tier="gold"} 30
attestd_tier_admitted_total{tier="bulk"} 1400
`)
	w := &workload{honest: 1, sessions: 2, period: 100_000_000, daemonBound: true} // 100 ms
	// Over the window the daemon's CPU ran the probe at half the reference
	// speed, so the daemon ran 2^probeExp times slower.
	a := &sample{series: first, mallocs: 400, mallocsEnd: 500, sampleAllocs: 100,
		daemon: procSample{cpuNs: 1e9, syscr: 100, rchar: 100000}, daemonProbe: 3 * probeRefNs}
	b := &sample{series: last, mallocs: 1500, mallocsEnd: 1620, sampleAllocs: 120,
		daemon: procSample{cpuNs: 2e9, syscr: 300, rchar: 900000}, daemonProbe: 2 * probeRefNs}
	b.t = a.t.Add(2e9) // 2 s
	b.traffic.proverFrames = 40
	m := windowMetrics(w, a, b)
	slow := math.Pow(2, probeExp)
	for name, want := range map[string]float64{
		"attestd.frames_per_s":                   1000,          // 2000 frames / 2 s
		"gate_frames_per_s":                      1000 * slow,   // at the reference speed
		"prover.frames_per_s":                    20,            // 40 requests / 2 s
		"host.daemon_cpu_probe_ns":               20000,         // b holds the window's mean probe
		"attestd.cpu_ns_per_frame":               500000 / slow, // 1 s of CPU / 2000 frames, at the reference speed
		"attestd.cpu_us_per_round":               50000 / slow,  // 1 s / 20 rounds, at the reference speed
		"daemon_allocs_per_round":                44.5,          // (1500 - 500 - 110 for one sample) / 20
		"rounds_on_time":                         1,             // 20 rounds in 2 s at 100 ms
		"attestd.read_syscalls_per_frame":        0.1,
		"attestd.read_bytes_per_syscall":         4000,
		"attestd.cpu_cores_busy":                 0.5,
		"server.admitted_share":                  0.215, // 430 / 2000
		"server.reject_share.tier_limited":       0.285,
		"server.reject_share.unsolicited":        0.2,
		"server.reject_share.malformed_response": 0,
		"server.fast_share":                      1,
		"server.issued_per_tick":                 0.5, // 20 issued / (2 sessions × 20 ticks)
	} {
		if got := m[name]; math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := sumFamily(last, "attestd_rejects_total") - sumFamily(first, "attestd_rejects_total"); got != 1370 {
		t.Errorf("reject delta = %v, want 1370", got)
	}
	if !math.IsNaN(m["server.verdict_us_mean"]) {
		t.Errorf("verdict mean with no observations = %v, want NaN", m["server.verdict_us_mean"])
	}
}
