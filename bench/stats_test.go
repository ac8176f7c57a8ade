package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // sorted: 10 20 30 40
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.25, 10}, {0.26, 20}, {0.5, 20}, {0.75, 30}, {0.76, 40}, {0.99, 40}, {1, 40},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{math.NaN(), 5, math.NaN()}, 0.5); got != 5 {
		t.Errorf("NaNs not ignored: %v", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty sample = %v, want NaN", got)
	}
}

func TestSummarizeSpread(t *testing.T) {
	for _, tc := range []struct {
		name   string
		xs     []float64
		q1, q3 float64
		med    float64
		spread float64
	}{
		{name: "three runs", xs: []float64{90, 100, 110}, q1: 90, med: 100, q3: 110, spread: 0.2},
		{name: "identical", xs: []float64{7, 7, 7, 7}, q1: 7, med: 7, q3: 7, spread: 0},
		{name: "zero median, zero iqr", xs: []float64{0, 0, 0}, spread: 0},
		{name: "zero median, nonzero iqr", xs: []float64{-1, 0, 1}, q1: -1, q3: 1, spread: math.Inf(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := summarize(tc.xs)
			if s.Q1 != tc.q1 || s.Median != tc.med || s.Q3 != tc.q3 || s.Spread != tc.spread {
				t.Fatalf("summarize(%v) = %+v", tc.xs, s)
			}
		})
	}
}

func TestJudgePairRule(t *testing.T) {
	ramp := func(start, step float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = start + step*float64(i%3)
		}
		return xs
	}
	for _, tc := range []struct {
		name       string
		base, head []float64
		better     string
		bound      float64
		want       string
	}{
		{
			name: "ten pairs, all won, gap beyond base iqr",
			base: ramp(100, 1, 10), head: ramp(90, 1, 10), better: "lower", bound: 0.1,
			want: verdictImproved,
		},
		{
			name: "same gap over nine pairs is not enough pairs",
			base: ramp(100, 1, 9), head: ramp(90, 1, 9), better: "lower", bound: 0.1,
			want: verdictUnchanged,
		},
		{
			name: "eight wins of ten",
			base: []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
			head: []float64{90, 90, 90, 90, 90, 90, 90, 90, 101, 101}, better: "lower", bound: 0.1,
			want: verdictUnchanged,
		},
		{
			name: "ties count for neither side",
			base: []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
			head: []float64{90, 90, 90, 90, 90, 90, 90, 90, 90, 100}, better: "lower", bound: 0.1,
			want: verdictImproved,
		},
		{
			name: "won every pair but gap inside the base iqr",
			base: []float64{100, 120, 100, 120, 100, 120, 100, 120, 100, 120},
			head: []float64{99, 119, 99, 119, 99, 119, 99, 119, 99, 119}, better: "lower", bound: 0.25,
			want: verdictUnchanged,
		},
		{
			name: "higher is better",
			base: ramp(100, 1, 10), head: ramp(110, 1, 10), better: "higher", bound: 0.1,
			want: verdictImproved,
		},
		{
			name: "regression past the bound",
			base: []float64{100, 101, 99}, head: []float64{115, 116, 114}, better: "lower", bound: 0.1,
			want: verdictRegressed,
		},
		{
			name: "worse but within the bound",
			base: []float64{100, 101, 99}, head: []float64{105, 106, 104}, better: "lower", bound: 0.1,
			want: verdictUnchanged,
		},
		{
			name: "spread wider than the bound",
			base: []float64{80, 100, 120}, head: []float64{100, 101, 99}, better: "lower", bound: 0.1,
			want: verdictUnresolved,
		},
		{
			name: "wide spread but every head run better",
			base: []float64{80, 100, 120}, head: []float64{50, 60, 70}, better: "lower", bound: 0.1,
			want: verdictUnchanged,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if j := judge(tc.base, tc.head, tc.better, tc.bound); j.Verdict != tc.want {
				t.Fatalf("judge = %s (%d/%d wins, %+v vs %+v), want %s", j.Verdict, j.Wins, j.Pairs, j.Base, j.Head, tc.want)
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) with children [10,30), [20,50) (overlapping) and
	// [60,70); a grandchild [12,18) inside the first child; a child
	// reaching past its parent's end is clipped.
	spans := []span{
		{Name: "frame", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "a.inner", Start: 12, End: 18, Parent: 1},
		{Name: "late", Start: 95, End: 120, Parent: 0},
	}
	stats := make(map[string]*layerStat)
	selfTimes(spans, stats)
	for name, want := range map[string]float64{
		"frame":   100 - (40 + 10 + 5), // union [10,50) + [60,70) + [95,100)
		"a":       20 - 6,
		"b":       30,
		"c":       10,
		"a.inner": 6,
		"late":    25,
	} {
		if st := stats[name]; st == nil || st.self != want || st.calls != 1 {
			t.Errorf("%s: %+v, want self %v", name, st, want)
		}
	}
	if st := stats["frame/a"]; st == nil || st.dur != 20 {
		t.Errorf("root-qualified stat frame/a = %+v, want dur 20", st)
	}
	if _, ok := stats["a/a.inner"]; ok {
		t.Error("a grandchild got a root-qualified stat")
	}
}

// TestServerSelfTime checks the subtraction behind server.self_*: the
// daemon's CPU between the run's first and last sample minus the replayed
// per-call costs weighted by the live call counts, both at the reference
// CPU speed.
func TestServerSelfTime(t *testing.T) {
	// The replay and the live phase both ran twice as slow as the
	// reference speed; the span floor is measured at the replay's speed.
	const slow, floor = 2, 10
	stats := map[string]*layerStat{}
	put := func(name string, calls int, meanNs float64) {
		stats[name] = &layerStat{calls: calls, dur: (slow*meanNs + floor) * float64(calls)}
	}
	put("frame/transport.recv", 100, 60)
	put("round/transport.recv", 10, 1000)
	put("transport.send", 10, 2000)
	put("protocol.classify", 110, 5)
	put("protocol.decode_resp", 80, 15)
	put("protocol.check_unsolicited", 30, 20)
	put("protocol.check_fast", 8, 300)
	put("protocol.check_full", 2, 3e6)
	put("protocol.new_request", 10, 4000)
	put("obs.record", 110, 25)

	live := &runResult{probeNs: probeRefNs * math.Pow(slow, 1/probeExp)}
	live.first.series = map[string]float64{}
	live.last.series = map[string]float64{
		"attestd_frames_total":                              10000,
		"attestd_responses_accepted_total":                  100,
		"attestd_responses_fast_total":                      99,
		"attestd_requests_issued_total":                     100,
		`attestd_tier_admitted_total{tier="default"}`:       10000,
		`attestd_rejects_total{cause="unsolicited"}`:        3300,
		`attestd_rejects_total{cause="malformed_response"}`: 3300,
	}
	live.last.daemon.cpuNs = slow * 20e6
	m := layerMetrics(stats, floor, slow, map[string][]uint64{}, live)

	recv := (60*9900 + 1000*100) / 10000.0
	children := recv*10000 + 5*10000 + 15*(100+3300+3300) + 20*3300 + 300*99 + 3e6*1 + 25*10000 + (4000+2000)*100
	if got, want := m["server.self_ns_per_frame"], (20e6-children)/10000; math.Abs(got-want) > 1e-6 {
		t.Errorf("self_ns_per_frame = %v, want %v", got, want)
	}
	if got, want := m["server.self_us_per_round"], (20e6-children)/1e3/100; math.Abs(got-want) > 1e-9 {
		t.Errorf("self_us_per_round = %v, want %v", got, want)
	}
	if got := m["transport.recv_ns"]; math.Abs(got-recv) > 1e-9 {
		t.Errorf("transport.recv_ns = %v, want the live-weighted %v", got, recv)
	}
	if got := m["protocol.check_full_us"]; math.Abs(got-3000) > 1e-9 {
		t.Errorf("check_full_us = %v, want 3000", got)
	}
}
