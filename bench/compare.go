package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
)

// compareMain compares two sets, metric by metric and workload by
// workload, with judge's rule and the bounds of BENCHMARK.json. It exits
// 1 when any end-to-end metric regressed on any workload.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	base := fs.String("base", "", "the parent's set: a file of set records (-out, or bench/history.jsonl), optionally path:N for its N-th line (default: the last)")
	head := fs.String("head", "", "the change's set, in the same form")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "compare: -base and -head are required")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	b, err := loadSet(*base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	h, err := loadSet(*head)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	fmt.Printf("base %s (dirty=%v, %d runs)  head %s (dirty=%v, %d runs)\n",
		b.Stamp.GitHead, b.Stamp.GitDirty, b.Runs, h.Stamp.GitHead, h.Stamp.GitDirty, h.Runs)
	regressed := false
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprint(tw, "workload")
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(tw, "\t%s", m.Name)
	}
	fmt.Fprintln(tw, "\t")
	for _, w := range spec.Workloads {
		bw, hw := b.Workloads[w.Name], h.Workloads[w.Name]
		if bw == nil || hw == nil {
			fmt.Fprintf(tw, "%s\tmissing from a set\n", w.Name)
			continue
		}
		fmt.Fprint(tw, w.Name)
		for _, m := range spec.EndToEnd {
			j := judge(runValues(bw, m.Name), runValues(hw, m.Name), m.Better, m.Bound)
			if j.Verdict == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(tw, "\t%s %+.1f%% (%d/%d)", j.Verdict, 100*j.Change, j.Wins, j.Pairs)
		}
		fmt.Fprintln(tw, "\t")
	}
	tw.Flush()
	fmt.Println("cells: verdict, head median vs base median, pairs the head won / pairs")
	if regressed {
		return 1
	}
	return 0
}

func runValues(ws *workloadSet, name string) []float64 {
	var vs []float64
	for _, r := range ws.Runs {
		vs = append(vs, r.Metrics[name])
	}
	return vs
}

// loadSet reads one set record from path, or from line N of path when
// written path:N.
func loadSet(arg string) (*setRecord, error) {
	path, line := arg, 0
	if i := strings.LastIndexByte(arg, ':'); i > 0 {
		if n, err := strconv.Atoi(arg[i+1:]); err == nil {
			path, line = arg[:i], n
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var pick []byte
	for n := 1; sc.Scan(); n++ {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		if line == 0 || n == line {
			pick = append(pick[:0], sc.Bytes()...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if pick == nil {
		return nil, fmt.Errorf("%s: no set record", arg)
	}
	var rec setRecord
	if err := json.Unmarshal(pick, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", arg, err)
	}
	return &rec, nil
}
