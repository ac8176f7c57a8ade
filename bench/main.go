// Command bench is the repository's benchmark. It builds cmd/attestd,
// runs it as a subprocess, drives it from this process with the provers,
// the attacker and a man-in-the-middle relay of each workload, and reads
// the daemon's cost from outside: /proc, its pprof MemStats and its
// /metrics. Every run checks the exact accounting of what it sent. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"

	"proverattest/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// env is what every run shares: the repository, the fresh attestd binary
// and its stamp, and BENCHMARK.json.
type env struct {
	root    string
	attestd string
	golden  []byte // the fleet's measured-memory image, as attestd provisions it
	spec    *benchSpec
	stamp   stamp
	place   placement
}

func newEnv(seed int64) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{root: root, attestd: filepath.Join(dir, "attestd"), golden: core.GoldenRAMPattern(), spec: spec}
	if e.stamp, err = buildAttestd(root, e.attestd, seed); err != nil {
		return nil, err
	}
	// Pinned after the build, which uses every CPU.
	if e.place, err = pinGenerator(); err != nil {
		return nil, err
	}
	e.stamp.GOMAXPROCS = runtime.GOMAXPROCS(0)
	e.stamp.DaemonCPUs, e.stamp.GenCPUs = e.place.daemon.cpus(), e.place.gen.cpus()
	return e, nil
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run this workload once and end with the one-line JSON result (empty: a set over every workload)")
		seed    = fs.Int64("seed", 1, "seed of the generated traffic; run i of a set uses seed+i")
		seconds = fs.Float64("seconds", 25, "length of the measured phase of each run")
		trace   = fs.Bool("trace", false, "also replay each workload's streams through the layers with spans on, and report per-layer metrics")
		runs    = fs.Int("runs", 3, "runs per workload in a set, interleaved across workloads")
		out     = fs.String("out", "", "also write the set's record to this file")
	)
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be positive")
		return 2
	}
	e, err := newEnv(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *name != "" {
		return runOne(e, *name, *seed, *seconds, *trace)
	}
	return runSet(e, *seed, *seconds, *runs, *trace, *out)
}

// joinTraceValue rewrites "-trace 0" and "-trace 1" as "-trace=0" and
// "-trace=1": a boolean flag does not take a separate value, and the
// benchmark is invoked both as "-trace" and as "--trace 0|1".
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// runOne runs one workload once and prints, as its last line, the JSON
// result: the end-to-end metrics, or with trace the per-layer ones.
func runOne(e *env, name string, seed int64, seconds float64, trace bool) int {
	w, err := workloadByName(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	printStamp(e.stamp)
	res, err := runWorkload(e, w, seed, seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	list := e.spec.EndToEnd
	if trace {
		tr, err := traceWorkload(w, seed, e.golden, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: tracing %s: %v\n", name, err)
			return 1
		}
		for k, v := range tr.layers {
			res.Metrics[k] = v
		}
		printTrace(w.name, tr)
		if err := writeTrace(e.root, w.name, seed, tr); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		list = e.spec.PerLayer
	}
	if m := missing(list, res.Metrics); len(m) > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s computed no value for %v\n", name, m)
		return 1
	}
	printRun(e.spec, res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value)}
	for _, m := range list {
		line.Metrics[m.Name] = value{finite(res.Metrics[m.Name]), m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// finite maps a value a window could not define (no denominator on this
// workload) to 0 for JSON, which has no NaN.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// setRecord is one completed set: a line of bench/history.jsonl and the
// input of compare.
type setRecord struct {
	Stamp     stamp                   `json:"stamp"`
	Seconds   float64                 `json:"seconds"`
	Runs      int                     `json:"runs"`
	Passed    bool                    `json:"passed"` // every run correct, every end-to-end spread but setup_s's within its bound
	Workloads map[string]*workloadSet `json:"workloads"`
}

type workloadSet struct {
	Runs    []*runResult       `json:"runs"`
	Summary map[string]summary `json:"summary"`          // end-to-end metrics
	Traced  map[string]float64 `json:"traced,omitempty"` // the traced replay's per-layer metrics (-trace)
}

// runSet runs every workload runs times, interleaved, applies the variance
// gate and appends the set to bench/history.jsonl.
func runSet(e *env, seed int64, seconds float64, runs int, trace bool, out string) int {
	printStamp(e.stamp)
	rec := &setRecord{Stamp: e.stamp, Seconds: seconds, Runs: runs, Passed: true, Workloads: make(map[string]*workloadSet)}
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			res, err := runWorkload(e, w, seed+int64(r), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printRun(e.spec, res)
			sanitize(res.Metrics)
			ws := rec.Workloads[w.name]
			if ws == nil {
				ws = &workloadSet{Summary: make(map[string]summary)}
				rec.Workloads[w.name] = ws
			}
			ws.Runs = append(ws.Runs, res)
			rec.Passed = rec.Passed && res.Correct
		}
	}
	fmt.Printf("\nset of %d runs per workload, %g s each (median [q1, q3], spread = iqr/median)\n", runs, seconds)
	for _, w := range workloads {
		ws := rec.Workloads[w.name]
		tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "%s\tmedian\tq1\tq3\tspread\tbound\t\n", w.name)
		for _, m := range e.spec.EndToEnd {
			s := summarize(runValues(ws, m.Name))
			if math.IsInf(s.Spread, 0) || math.IsNaN(s.Spread) {
				s.Spread = math.MaxFloat64
			}
			ws.Summary[m.Name] = s
			// setup_s is held to its bound on medians only: one set-up
			// takes a few ms, and process start-up jitter alone spreads it
			// by more than its bound from run to run.
			flag := ""
			if s.Spread > m.Bound && m.Name != "setup_s" {
				flag = "SPREAD OVER BOUND"
				rec.Passed = false
			}
			fmt.Fprintf(tw, "  %s (%s)\t%.6g\t%.6g\t%.6g\t%.4f\t%.2f\t%s\n", m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.Spread, m.Bound, flag)
		}
		tw.Flush()
	}
	if trace {
		for _, w := range workloads {
			ws := rec.Workloads[w.name]
			tr, err := traceWorkload(w, seed, e.golden, ws.Runs[len(ws.Runs)-1])
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: tracing %s: %v\n", w.name, err)
				return 1
			}
			printTrace(w.name, tr)
			printLayers(e.spec, tr.layers)
			ws.Traced = tr.layers
			sanitize(ws.Traced)
			if err := writeTrace(e.root, w.name, seed, tr); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
	}
	b, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := appendLine(filepath.Join(e.root, "bench", "history.jsonl"), b); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if out != "" {
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !rec.Passed {
		fmt.Println("set FAILED: a run was incorrect or a spread exceeded its bound")
		return 1
	}
	fmt.Println("set passed")
	return 0
}

// sanitize drops values JSON cannot hold (a ratio with no denominator on
// this workload).
func sanitize(m map[string]float64) {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(m, k)
		}
	}
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printStamp(s stamp) {
	b, _ := json.Marshal(s) // a struct of strings, ints and bools always marshals
	fmt.Printf("stamp %s\n", b)
}

func printRun(spec *benchSpec, r *runResult) {
	fmt.Printf("%s seed=%d correct=%v attempted=%d failed=%d\n", r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Printf("  CHECK FAILED: %s\n", f)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", m.Name, r.Metrics[m.Name], m.Unit)
	}
	tw.Flush()
}

func printLayers(spec *benchSpec, layers map[string]float64) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	for _, m := range spec.PerLayer {
		if v, ok := layers[m.Name]; ok {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", m.Name, v, m.Unit)
		}
	}
	tw.Flush()
}

// printTrace prints the per-layer self-time table of a traced replay. Both
// times are per call, less the cost of an empty span.
func printTrace(workload string, tr *traceResult) {
	names := make([]string, 0, len(tr.stats))
	var total float64
	for name, st := range tr.stats {
		if !strings.Contains(name, "/") {
			names = append(names, name)
			total += st.self
		}
	}
	sort.Slice(names, func(i, j int) bool { return tr.stats[names[i]].self > tr.stats[names[j]].self })
	fmt.Printf("\ntrace %s: span floor %.1f ns, tracing overhead %.1f ns per call\n",
		workload, tr.floor, tr.layers["trace.overhead_ns_per_call"])
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "span\tcalls\tmean ns\tself ns\tself share\t\n")
	for _, name := range names {
		st := tr.stats[name]
		n := float64(st.calls)
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f%%\t\n", name, st.calls, st.dur/n-tr.floor, st.self/n-tr.floor, 100*st.self/total)
	}
	tw.Flush()
}

// writeTrace writes the spans of a traced replay to bench/out.
func writeTrace(root, workload string, seed int64, tr *traceResult) error {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		FloorNs  float64 `json:"span_floor_ns"`
		Spans    []span  `json:"spans"`
	}{workload, seed, tr.floor, tr.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d spans to %s\n", len(tr.spans), path)
	return nil
}
