// Package obs is the daemon's dependency-free metrics core: lock-free
// counters, gauges and fixed-bucket latency histograms that are safe to
// record from the serving hot path, plus a Prometheus-text exposition
// writer served off the hot path (cmd/attestd's -metrics listener).
//
// The design constraint comes from the paper's asymmetry argument: the
// frames an adversary controls must die at the daemon's gate for ~ns, so
// the instrumentation of that gate cannot cost more than the gate itself.
// Recording is therefore plain integers on preallocated arrays — no maps,
// no interfaces, no fmt, and 0 allocs/op (pinned by alloc tests). A
// per-frame loop tallies on its own goroutine (HistogramTally, and plain
// counts for counters) and publishes the tally to the shared series with
// one atomic add per touched series when its input runs dry; recording
// straight into a series is an atomic add, for paths that run once per
// round rather than once per frame. All allocation happens at
// registration time (startup): a scrape, off the hot path, formats into a
// buffer reused across scrapes and allocates nothing once the registry
// has been scraped.
//
// Series identity (name plus rendered label pairs) is fixed at
// registration: a labelled family like rejects{cause=...} is N separate
// Counter registrations, one per cause, so the hot path never renders or
// hashes a label.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Label is one name/value pair of a series. Labels are rendered once at
// registration; recording never touches them.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter. The zero value is ready
// to use; a nil *Counter is a no-op, so optional instrumentation can be
// wired unconditionally.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load reads the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. The zero value is ready to
// use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Load reads the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets spans the daemon's dynamic range: the ~ns gate
// rejects sit in the lowest buckets, the ≈754 ms simulated measurement in
// the highest — the spread between them is the paper's asymmetry, visible
// directly in the two histograms' mass.
var DefaultLatencyBuckets = []time.Duration{
	500 * time.Nanosecond,
	2 * time.Microsecond,
	10 * time.Microsecond,
	50 * time.Microsecond,
	250 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	500 * time.Millisecond,
	2500 * time.Millisecond,
	10 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. Buckets are chosen at
// registration; Observe is a branch-light scan over a preallocated bound
// array plus three atomic adds. Per-bucket counts are stored
// non-cumulative and cumulated at exposition, so recording touches exactly
// one bucket. A nil *Histogram is a no-op.
type Histogram struct {
	bounds []int64         // upper bounds in ns, ascending; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, non-cumulative
	count  atomic.Uint64
	sum    atomic.Int64 // total observed ns
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// bucket is the index of the bucket v (ns) falls in.
func (h *Histogram) bucket(v int64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// HistogramTally accumulates observations of one Histogram in plain
// integers, for a loop that observes on a single goroutine: Observe
// touches no shared memory, and Flush publishes everything observed since
// the last Flush with one atomic add per touched bucket plus the count and
// the sum. The histogram shows the tally's observations only once it is
// flushed. A tally is not safe for concurrent use; the tally of a nil
// *Histogram (and the zero HistogramTally) records nothing.
type HistogramTally struct {
	h      *Histogram
	counts []uint64 // len(h.bounds)+1, non-cumulative
	count  uint64
	sum    int64
}

// Tally returns an empty tally that flushes into h.
func (h *Histogram) Tally() HistogramTally {
	if h == nil {
		return HistogramTally{}
	}
	return HistogramTally{h: h, counts: make([]uint64, len(h.counts))}
}

// ObserveN records n observations of d in the tally with one bucket
// lookup: exactly what n calls of Histogram.Observe(d) record.
func (t *HistogramTally) ObserveN(d time.Duration, n uint64) {
	if t.h == nil || n == 0 {
		return
	}
	v := int64(d)
	t.counts[t.h.bucket(v)] += n
	t.count += n
	t.sum += v * int64(n)
}

// Flush adds the tally to its histogram and empties it.
func (t *HistogramTally) Flush() {
	if t.count == 0 {
		return
	}
	for i, n := range t.counts {
		if n != 0 {
			t.h.counts[i].Add(n)
			t.counts[i] = 0
		}
	}
	t.h.count.Add(t.count)
	t.h.sum.Add(t.sum)
	t.count, t.sum = 0, 0
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the total observed time.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// metricKind discriminates the exposition shape of a series.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// series is one registered time series (a family member with its labels
// already rendered).
type series struct {
	name   string // family name, e.g. attestd_rejects_total
	help   string
	kind   metricKind
	labels string // rendered inner label list: `cause="malformed"`, or ""

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
	le      []string // a histogram's rendered bucket labels, `le="+Inf"` last
}

// Registry holds the registered series. Registration may allocate and
// lock; it happens at component construction, never on a serving path. A
// nil *Registry returns nil instruments from every constructor, which
// record as no-ops — callers can instrument unconditionally and let the
// deployment decide whether a registry exists.
type Registry struct {
	mu sync.Mutex
	// order holds every series in exposition order: by family name, and
	// in registration order within a family. Registration inserts into
	// it, so a scrape never sorts.
	order []*series
	// free holds the expositions of finished scrapes, for the next ones
	// to reuse: one per scrape that ever ran concurrently with another.
	free []*exposition
}

// exposition is one scrape's working state: a snapshot of the series
// order, taken so that no lock is held while gauge funcs run or the
// writer blocks, and the text buffer.
type exposition struct {
	order []*series
	buf   []byte
}

// New builds an empty registry.
func New() *Registry { return &Registry{} }

// labelEscaper implements the text-format escaping rules for label
// values: backslash, double quote and newline must be escaped or a
// hostile value (a device-supplied cause string, say) breaks out of the
// quoted value and corrupts — or forges — exposition lines.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabelValue escapes a label value per the Prometheus text
// exposition format. renderLabels applies it to every registered value;
// it is exported for callers that assemble label strings by hand.
func EscapeLabelValue(v string) string { return labelEscaper.Replace(v) }

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(EscapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	return sb.String()
}

// register inserts s after the last series of its family, or where its
// family sorts among the others.
func (r *Registry) register(s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	at := sort.Search(len(r.order), func(i int) bool { return r.order[i].name > s.name })
	for i := at - 1; i >= 0 && r.order[i].name == s.name; i-- {
		if r.order[i].labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", s.name, s.labels))
		}
	}
	r.order = slices.Insert(r.order, at, s)
}

// Counter registers and returns a counter series. Returns nil (a no-op
// counter) on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(&series{name: name, help: help, kind: kindCounter, labels: renderLabels(labels), counter: c})
	return c
}

// Gauge registers and returns a gauge series. Returns nil on a nil
// registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(&series{name: name, help: help, kind: kindGauge, labels: renderLabels(labels), gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed at exposition time
// — the escape hatch for state that already has an owner (fleet
// aggregates, map sizes) and must not be duplicated on the hot path. fn
// runs on the scrape goroutine only.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&series{name: name, help: help, kind: kindGaugeFunc, labels: renderLabels(labels), gaugeFn: fn})
}

// Histogram registers and returns a latency histogram with the given
// bucket upper bounds (nil = DefaultLatencyBuckets). Returns nil on a nil
// registry.
func (r *Registry) Histogram(name, help string, buckets []time.Duration, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	h := &Histogram{
		bounds: make([]int64, len(buckets)),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	for i, b := range buckets {
		h.bounds[i] = int64(b)
	}
	for i := 1; i < len(h.bounds); i++ {
		if h.bounds[i] <= h.bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not strictly ascending", name))
		}
	}
	le := make([]string, 0, len(h.counts))
	for _, bound := range h.bounds {
		le = append(le, `le="`+strconv.FormatFloat(seconds(bound), 'g', -1, 64)+`"`)
	}
	le = append(le, `le="+Inf"`)
	r.register(&series{name: name, help: help, kind: kindHistogram, labels: renderLabels(labels), hist: h, le: le})
	return h
}

// typeString maps a kind to its exposition TYPE keyword.
func (k metricKind) typeString() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// seconds converts ns to the exposition's unit.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4). Families are emitted in sorted name order with
// one HELP/TYPE header each; label variants keep registration order
// within a family. Histograms expose cumulative _bucket series plus _sum
// (seconds) and _count. The text is rendered into a buffer reused across
// scrapes, so a scrape allocates nothing once the buffer has grown to
// the registry's size.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var x *exposition
	if n := len(r.free); n > 0 {
		x, r.free = r.free[n-1], r.free[:n-1]
	} else {
		x = new(exposition)
	}
	x.order = append(x.order[:0], r.order...)
	r.mu.Unlock()

	b := x.buf[:0]
	for i, s := range x.order {
		if i == 0 || s.name != x.order[i-1].name {
			b = append(b, "# HELP "...)
			b = append(b, s.name...)
			b = append(b, ' ')
			b = append(b, s.help...)
			b = append(b, "\n# TYPE "...)
			b = append(b, s.name...)
			b = append(b, ' ')
			b = append(b, s.kind.typeString()...)
			b = append(b, '\n')
		}
		switch s.kind {
		case kindCounter:
			b = appendSample(b, s.name, "", s.labels, "")
			b = strconv.AppendUint(b, s.counter.Load(), 10)
		case kindGauge:
			b = appendSample(b, s.name, "", s.labels, "")
			b = strconv.AppendInt(b, s.gauge.Load(), 10)
		case kindGaugeFunc:
			b = appendSample(b, s.name, "", s.labels, "")
			b = strconv.AppendFloat(b, s.gaugeFn(), 'g', -1, 64)
		case kindHistogram:
			h := s.hist
			var cum uint64
			for i, le := range s.le {
				cum += h.counts[i].Load()
				b = appendSample(b, s.name, "_bucket", s.labels, le)
				b = strconv.AppendUint(b, cum, 10)
				b = append(b, '\n')
			}
			b = appendSample(b, s.name, "_sum", s.labels, "")
			b = strconv.AppendFloat(b, seconds(h.sum.Load()), 'g', -1, 64)
			b = append(b, '\n')
			// _count must equal the +Inf bucket by definition. Reading
			// h.count here instead would race a concurrent Observe (which
			// bumps the bucket and the count as two separate atomics) and
			// let a scrape see _count != +Inf.
			b = appendSample(b, s.name, "_count", s.labels, "")
			b = strconv.AppendUint(b, cum, 10)
		}
		b = append(b, '\n')
	}
	x.buf = b
	_, err := w.Write(b)
	r.mu.Lock()
	r.free = append(r.free, x)
	r.mu.Unlock()
	return err
}

// appendSample appends a sample line up to its value:
// `name+suffix{labels,extra} `. Both label parts may be empty.
func appendSample(b []byte, name, suffix, labels, extra string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if labels != "" || extra != "" {
		b = append(b, '{')
		b = append(b, labels...)
		if labels != "" && extra != "" {
			b = append(b, ',')
		}
		b = append(b, extra...)
		b = append(b, '}')
	}
	return append(b, ' ')
}

// Handler serves the registry as a Prometheus scrape endpoint. Mount it
// on a listener of its own (attestd -metrics) so scrapes share nothing
// with the frame-serving path.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
