package obs

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strconv"
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

// everyKind builds a registry with every series kind, labelled and
// unlabelled series, a family registered in two parts and histograms on
// custom and default buckets, registered out of name order.
func everyKind() *Registry {
	r := New()
	r.Gauge("zeta_inflight", "outstanding requests").Set(-2)
	r.Counter("rejects_total", "rejects by cause", L("cause", "malformed")).Add(3)
	in := r.Histogram("lat_seconds", "round trip", []time.Duration{500 * time.Nanosecond, time.Millisecond, 2500 * time.Millisecond}, L("dir", "in"))
	r.GaugeFunc("devices", "known devices", func() float64 { return 0.25 })
	r.Counter("rejects_total", "rejects by cause", L("cause", `say "no"`), L("tier", "bulk")).Add(5)
	out := r.Histogram("lat_seconds", "round trip", nil, L("dir", "out"))
	r.Counter("accepted_total", "accepted rounds")
	r.GaugeFunc("big", "a large value", func() float64 { return 1e21 })
	gate := r.Histogram("gate_seconds", "gate time", []time.Duration{2 * time.Microsecond, 10 * time.Second})
	for _, d := range []time.Duration{0, 500 * time.Nanosecond, 700 * time.Microsecond, 3 * time.Second} {
		in.Observe(d)
	}
	out.Observe(42 * time.Millisecond)
	gate.Observe(1500 * time.Nanosecond)
	gate.Observe(time.Minute)
	return r
}

// everyKindText is everyKind's exposition, byte for byte: the text a
// writer that grouped the series in a map and sorted the family names on
// every scrape rendered, which the cached order must reproduce.
const everyKindText = `# HELP accepted_total accepted rounds
# TYPE accepted_total counter
accepted_total 0
# HELP big a large value
# TYPE big gauge
big 1e+21
# HELP devices known devices
# TYPE devices gauge
devices 0.25
# HELP gate_seconds gate time
# TYPE gate_seconds histogram
gate_seconds_bucket{le="2e-06"} 1
gate_seconds_bucket{le="10"} 1
gate_seconds_bucket{le="+Inf"} 2
gate_seconds_sum 60.0000015
gate_seconds_count 2
# HELP lat_seconds round trip
# TYPE lat_seconds histogram
lat_seconds_bucket{dir="in",le="5e-07"} 2
lat_seconds_bucket{dir="in",le="0.001"} 3
lat_seconds_bucket{dir="in",le="2.5"} 3
lat_seconds_bucket{dir="in",le="+Inf"} 4
lat_seconds_sum{dir="in"} 3.0007005
lat_seconds_count{dir="in"} 4
lat_seconds_bucket{dir="out",le="5e-07"} 0
lat_seconds_bucket{dir="out",le="2e-06"} 0
lat_seconds_bucket{dir="out",le="1e-05"} 0
lat_seconds_bucket{dir="out",le="5e-05"} 0
lat_seconds_bucket{dir="out",le="0.00025"} 0
lat_seconds_bucket{dir="out",le="0.001"} 0
lat_seconds_bucket{dir="out",le="0.005"} 0
lat_seconds_bucket{dir="out",le="0.025"} 0
lat_seconds_bucket{dir="out",le="0.1"} 1
lat_seconds_bucket{dir="out",le="0.5"} 1
lat_seconds_bucket{dir="out",le="2.5"} 1
lat_seconds_bucket{dir="out",le="10"} 1
lat_seconds_bucket{dir="out",le="+Inf"} 1
lat_seconds_sum{dir="out"} 0.042
lat_seconds_count{dir="out"} 1
# HELP rejects_total rejects by cause
# TYPE rejects_total counter
rejects_total{cause="malformed"} 3
rejects_total{cause="say \"no\"",tier="bulk"} 5
# HELP zeta_inflight outstanding requests
# TYPE zeta_inflight gauge
zeta_inflight -2
`

// TestExpositionBytes: the exposition of a registry with every kind is
// byte for byte the reference text, on the first scrape and on a later
// one that reuses the pooled buffer.
func TestExpositionBytes(t *testing.T) {
	r := everyKind()
	for scrape := 0; scrape < 2; scrape++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if sb.String() != everyKindText {
			t.Fatalf("scrape %d:\n%s\nwant:\n%s", scrape, sb.String(), everyKindText)
		}
	}
}

// TestExpositionZeroAllocs: once a registry has been scraped, a scrape
// renders into the pooled buffer and allocates nothing.
func TestExpositionZeroAllocs(t *testing.T) {
	r := everyKind()
	if n := testing.AllocsPerRun(100, func() {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("WritePrometheus: %v allocs/op, want 0", n)
	}
}

// TestConcurrentScrapes: scrapes running at once each render into their
// own buffer, and a series registered meanwhile never tears one. The
// late series sort after everyKind's, so every scrape starts with
// everyKindText. The ci.yml race step runs it.
func TestConcurrentScrapes(t *testing.T) {
	r := everyKind()
	const scrapers, scrapes = 4, 50
	errs := make(chan error, scrapers)
	for g := 0; g < scrapers; g++ {
		go func() {
			for i := 0; i < scrapes; i++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					errs <- err
					return
				}
				if !strings.HasPrefix(sb.String(), everyKindText) {
					errs <- fmt.Errorf("a concurrent scrape read:\n%s", sb.String())
					return
				}
				if _, err := ParseText(strings.NewReader(sb.String())); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < scrapes; i++ {
		r.Counter("zz_late_total", "registered during scrapes", L("i", strconv.Itoa(i))).Inc()
	}
	for g := 0; g < scrapers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSeriesRegisteredAfterScrape: a series registered after a scrape
// appears in the next scrape, in its family's sorted place, and a new
// member of an existing family follows the family's earlier members.
func TestSeriesRegisteredAfterScrape(t *testing.T) {
	r := New()
	r.Counter("b_total", "b", L("k", "1")).Add(1)
	r.Gauge("d", "d").Set(4)
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	r.Gauge("c", "c").Set(3)
	r.Counter("b_total", "b", L("k", "0")).Add(2)
	r.Gauge("a", "a").Set(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var samples []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			samples = append(samples, line)
		}
	}
	want := []string{"a 1", `b_total{k="1"} 1`, `b_total{k="0"} 2`, "c 3", "d 4"}
	if strings.Join(samples, "\n") != strings.Join(want, "\n") {
		t.Fatalf("samples after late registration:\n%s\nwant:\n%s", strings.Join(samples, "\n"), strings.Join(want, "\n"))
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
