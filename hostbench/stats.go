package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a percentile
// before the benchmark reports it: with fewer, the value is decided by
// a handful of outliers and does not repeat.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of the samples by
// linear interpolation, and whether it may be reported: at least
// minBeyond samples must lie above the quantile's rank. The input is
// not modified.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 || n-int(math.Ceil(q*float64(n)-1e-9)) < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantileSorted(s, q), true
}

// median is the 0.5 quantile; it needs only one sample.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

func quantileSorted(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// overBudgetFrac is the share of latency samples strictly above the
// budget — the paper's F2 quantity for the worst computation path.
func overBudgetFrac(samples []float64, budgetMS float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	over := 0
	for _, v := range samples {
		if v > budgetMS {
			over++
		}
	}
	return float64(over) / float64(len(samples))
}

// perJob divides a total by a job count; zero jobs yield zero rather
// than a division by zero, and the caller counts the run as failed.
func perJob(total float64, jobs int) float64 {
	if jobs <= 0 {
		return 0
	}
	return total / float64(jobs)
}

// span is one timed call at a layer boundary. Parent is the index of
// the enclosing span in the same recorder, or -1 for a root.
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int
}

// selfTime is a span's duration minus the part of its interval that
// its children cover. Children may overlap each other (concurrent
// requests) or stick out of the parent; only the covered part of the
// parent's own interval is subtracted.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		covered += curHi - curLo
	}
	return parent.End - parent.Start - covered
}
