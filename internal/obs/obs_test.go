package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", nil)
	r.GaugeFunc("y", "", func() float64 { return 1 })
	c.Inc()
	g.Set(3)
	h.Observe(time.Millisecond)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments recorded values")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "latency", []time.Duration{
		time.Microsecond, time.Millisecond, time.Second,
	})
	h.Observe(500 * time.Nanosecond) // bucket 0 (le 1µs)
	h.Observe(time.Microsecond)      // bucket 0 (le is inclusive)
	h.Observe(2 * time.Microsecond)  // bucket 1
	h.Observe(2 * time.Second)       // overflow (+Inf)
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	want := 500*time.Nanosecond + time.Microsecond + 2*time.Microsecond + 2*time.Second
	if h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`lat_seconds_bucket{le="1e-06"} 2`,
		`lat_seconds_bucket{le="0.001"} 3`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		`lat_seconds_count 4`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, sb.String())
		}
	}
}

func TestExpositionFormat(t *testing.T) {
	r := New()
	r.Counter("rejects_total", "rejects by cause", L("cause", "malformed")).Add(3)
	r.Counter("rejects_total", "rejects by cause", L("cause", "unsolicited")).Add(5)
	r.Gauge("inflight", "outstanding requests").Set(2)
	r.GaugeFunc("devices", "known devices", func() float64 { return 8 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{
		"# HELP rejects_total rejects by cause",
		"# TYPE rejects_total counter",
		`rejects_total{cause="malformed"} 3`,
		`rejects_total{cause="unsolicited"} 5`,
		"# TYPE inflight gauge",
		"inflight 2",
		"devices 8",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
	// One HELP/TYPE header per family, not per label variant.
	if n := strings.Count(out, "# TYPE rejects_total"); n != 1 {
		t.Errorf("rejects_total TYPE header emitted %d times, want 1", n)
	}
}

// TestHostileLabelValuesEscaped: a label value is attacker-influenced
// text (an error string, a peer-supplied name). Unescaped quotes or
// newlines would let it terminate the sample early or inject whole forged
// exposition lines. Every escaped exposition must survive a ParseText
// round-trip as a single series.
func TestHostileLabelValuesEscaped(t *testing.T) {
	cases := []struct {
		name  string
		value string
		want  string // rendered label list
	}{
		{"plain", "tcp", `cause="tcp"`},
		{"quote", `say "no"`, `cause="say \"no\""`},
		{"backslash", `C:\boot`, `cause="C:\\boot"`},
		{"newline-injection", "x\"} 0\nforged_total 999", `cause="x\"} 0\nforged_total 999"`},
		{"trailing-backslash", `dangling\`, `cause="dangling\\"`},
		{"all-three", "\\\"\n", `cause="\\\"\n"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := New()
			r.Counter("hostile_total", "h", L("cause", tc.value)).Add(7)
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			wantLine := "hostile_total{" + tc.want + "} 7\n"
			if !strings.Contains(sb.String(), wantLine) {
				t.Fatalf("exposition missing %q:\n%s", wantLine, sb.String())
			}
			parsed, err := ParseText(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatalf("round-trip parse: %v", err)
			}
			if len(parsed) != 1 {
				t.Fatalf("hostile value split the exposition into %d series: %v", len(parsed), parsed)
			}
			if got := parsed["hostile_total{"+tc.want+"}"]; got != 7 {
				t.Fatalf("round-trip value = %v, want 7 (parsed: %v)", got, parsed)
			}
		})
	}
}

// TestHistogramScrapeConsistentUnderLoad: Observe bumps one bucket and
// the total count as separate atomics, so a scrape racing recorders must
// derive _count from the cumulated buckets — never read the count atomic
// — or _count and the +Inf bucket drift apart within one exposition.
func TestHistogramScrapeConsistentUnderLoad(t *testing.T) {
	r := New()
	h := r.Histogram("busy_seconds", "", []time.Duration{time.Microsecond, time.Millisecond})
	stop := make(chan struct{})
	done := make(chan struct{})
	const writers = 4
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(time.Duration(i%2000) * time.Microsecond)
				}
			}
		}(w)
	}
	for scrape := 0; scrape < 200; scrape++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseText(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		inf := parsed[`busy_seconds_bucket{le="+Inf"}`]
		count := parsed["busy_seconds_count"]
		if inf != count {
			t.Fatalf("scrape %d: +Inf bucket %v != _count %v", scrape, inf, count)
		}
	}
	close(stop)
	for w := 0; w < writers; w++ {
		<-done
	}
}

func TestDuplicateSeriesPanics(t *testing.T) {
	r := New()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "")
}

func TestHandler(t *testing.T) {
	r := New()
	r.Counter("served_total", "frames served").Add(9)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "served_total 9\n") {
		t.Fatalf("scrape body:\n%s", buf[:n])
	}
}

// TestRecordingZeroAllocs pins the hot-path contract the whole layer is
// built on: recording into any obs instrument — live or nil — is atomics
// on preallocated arrays, 0 allocs/op.
func TestRecordingZeroAllocs(t *testing.T) {
	r := New()
	c := r.Counter("hot_total", "")
	g := r.Gauge("hot", "")
	h := r.Histogram("hot_seconds", "", nil)
	var nilC *Counter
	var nilH *Histogram
	tally := h.Tally()
	for name, fn := range map[string]func(){
		"Counter.Inc":           func() { c.Inc() },
		"Counter.Add":           func() { c.Add(3) },
		"Gauge.Set":             func() { g.Set(5) },
		"Gauge.Add":             func() { g.Add(-1) },
		"Histogram.Observe":     func() { h.Observe(17 * time.Microsecond) },
		"Histogram.overflow":    func() { h.Observe(time.Minute) },
		"nil Counter.Inc":       func() { nilC.Inc() },
		"nil Histogram.Observe": func() { nilH.Observe(time.Second) },
		"HistogramTally.ObserveN+Flush": func() {
			tally.ObserveN(3*time.Microsecond, 5)
			tally.Flush()
		},
	} {
		fn() // warm up
		if n := testing.AllocsPerRun(1000, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

// TestHistogramTallyMatchesObserve: a tally flushed into one histogram
// leaves exactly the buckets, count and sum that observing every sample
// straight into another leaves, across several flushes, whether it takes
// the samples one at a time or ObserveN(d, n) takes n samples of d at
// once; observations show only once flushed; and a nil histogram's tally
// records nothing.
func TestHistogramTallyMatchesObserve(t *testing.T) {
	bounds := []time.Duration{time.Microsecond, time.Millisecond, time.Second}
	direct := New()
	want := direct.Histogram("lat_seconds", "", bounds)
	tallied := New()
	got := tallied.Histogram("lat_seconds", "", bounds)
	tally := got.Tally()
	batched := New()
	gotN := batched.Histogram("lat_seconds", "", bounds)
	tallyN := gotN.Tally()
	samples := []time.Duration{0, 500 * time.Nanosecond, time.Microsecond, 3 * time.Microsecond,
		time.Millisecond, 2 * time.Second, 999 * time.Millisecond, time.Hour}
	for round := 0; round < 3; round++ {
		for i, d := range samples {
			d *= time.Duration(round + 1)
			n := uint64(i+round) % 4 // zero observations included
			for k := uint64(0); k < n; k++ {
				want.Observe(d)
				tally.ObserveN(d, 1)
			}
			tallyN.ObserveN(d, n)
			if i == 3 && round == 1 {
				tally.Flush() // a flush mid-batch changes nothing either
			}
		}
		if round == 0 && (got.Count() != 0 || gotN.Count() != 0) {
			t.Fatalf("unflushed tallies already show %d and %d observations", got.Count(), gotN.Count())
		}
		tally.Flush()
		tally.Flush() // an empty flush is a no-op
		tallyN.Flush()
	}
	var a strings.Builder
	if err := direct.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*Histogram{"one at a time": got, "n at once": gotN} {
		if h.Count() != want.Count() || h.Sum() != want.Sum() {
			t.Fatalf("tally %s count/sum = %d/%v, per-sample observe = %d/%v", name, h.Count(), h.Sum(), want.Count(), want.Sum())
		}
		for i := range want.counts {
			if g, w := h.counts[i].Load(), want.counts[i].Load(); g != w {
				t.Fatalf("bucket %d: tally %s %d, per-sample observe %d", i, name, g, w)
			}
		}
	}
	for name, r := range map[string]*Registry{"one at a time": tallied, "n at once": batched} {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("tally %s exposition differs:\n%s\nvs\n%s", name, a.String(), b.String())
		}
	}

	var nilH *Histogram
	for _, nt := range []HistogramTally{nilH.Tally(), {}} {
		nt.ObserveN(time.Second, 3)
		nt.Flush()
	}
	if nilH.Count() != 0 {
		t.Fatal("nil histogram recorded a tally")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := New()
	h := r.Histogram("bench_seconds", "", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := New()
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
