package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank q-quantile of xs: the smallest value with
// at least ceil(q·n) of the values at or below it. NaNs are ignored; an
// empty sample gives NaN.
func percentile(xs []float64, q float64) float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// summary is a sample's median and quartiles. Spread is the interquartile
// range as a share of the median, the quantity a metric's bound limits.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	s := summary{Median: median(xs), Q1: percentile(xs, 0.25), Q3: percentile(xs, 0.75), N: len(xs)}
	s.Spread = relSpread(s.Q3-s.Q1, s.Median)
	return s
}

// relSpread is iqr/|median|; a zero median has zero spread only when the
// quartiles agree too.
func relSpread(iqr, med float64) float64 {
	if med == 0 {
		if iqr == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return iqr / math.Abs(med)
}

// Verdicts of compare, one per metric and workload.
const (
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictUnchanged  = "unchanged"
)

// judgement is the outcome of comparing one metric's runs on one workload.
type judgement struct {
	Verdict string
	Base    summary
	Head    summary
	Pairs   int
	Wins    int
	Change  float64 // (head median - base median) / base median
}

// judge applies the benchmark's comparison rule to one metric. better is
// "higher" or "lower"; bound is the share of the base median by which the
// head may be worse before it counts as a regression.
//
//   - improved: at least 10 pairs (base[i], head[i]), the head wins at least
//     nine tenths of them (ties count for neither side), and the medians
//     differ in the head's favour by more than the base's interquartile
//     range;
//   - unresolved: otherwise, when either side's spread exceeds the bound,
//     unless every head run reads better than every base run;
//   - regressed: otherwise, when the head median is worse than the base
//     median by more than bound × |base median|;
//   - unchanged: everything else.
func judge(base, head []float64, better string, bound float64) judgement {
	j := judgement{Base: summarize(base), Head: summarize(head)}
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	j.Pairs = min(len(base), len(head))
	for i := 0; i < j.Pairs; i++ {
		if sign*(head[i]-base[i]) > 0 {
			j.Wins++
		}
	}
	gain := sign * (j.Head.Median - j.Base.Median)
	if j.Base.Median != 0 {
		j.Change = (j.Head.Median - j.Base.Median) / math.Abs(j.Base.Median)
	}
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case j.Pairs >= 10 && j.Wins*10 >= 9*j.Pairs && gain > j.Base.Q3-j.Base.Q1:
		j.Verdict = verdictImproved
	case (j.Base.Spread > bound || j.Head.Spread > bound) && !allBetter:
		j.Verdict = verdictUnresolved
	case -gain > bound*math.Abs(j.Base.Median):
		j.Verdict = verdictRegressed
	default:
		j.Verdict = verdictUnchanged
	}
	return j
}
