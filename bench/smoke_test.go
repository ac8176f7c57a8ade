package main

import (
	"math"
	"sort"
	"testing"
)

// TestSmoke runs every workload briefly against a freshly built attestd and
// checks that every accounting check passes and that the metrics computed
// are exactly those BENCHMARK.json lists. It asserts no speed. Under the
// race detector it only runs the workloads: the instrumented provers take
// longer for one full MAC than the daemon's attest period, so the fast
// path never settles and the accounting checks fail by design.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds attestd and runs every workload")
	}
	e, err := newEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(e, w, 1, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if !raceEnabled {
				if !res.Correct {
					t.Fatalf("checks failed: %v", res.Failures)
				}
				if res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
			}
			tr, err := traceWorkload(w, 1, e.golden, res)
			if err != nil {
				t.Fatal(err)
			}
			var got, want []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for name := range tr.layers {
				got = append(got, name)
			}
			for _, m := range append(e.spec.EndToEnd, e.spec.PerLayer...) {
				want = append(want, m.Name)
			}
			if !sameSet(got, want) {
				sort.Strings(got)
				sort.Strings(want)
				t.Fatalf("computed %v\nBENCHMARK.json lists %v", got, want)
			}
			// Self time is a difference of two measurements, and half a
			// second of the daemon's CPU is too little to hold it to ≥ 0
			// (on prover_flood it is 25 full-MAC rounds), so this only
			// checks that it is computed.
			for _, name := range []string{"server.self_ns_per_frame", "server.self_us_per_round"} {
				if v := tr.layers[name]; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a finite value", name, v)
				}
			}
		})
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "gate_flood", "--trace", "0", "-trace", "-seed", "1", "--trace", "1"})
	want := []string{"--workload", "gate_flood", "--trace=0", "-trace", "-seed", "1", "--trace=1"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
