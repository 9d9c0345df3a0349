package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailPercentiles are the percentiles a timing may be summarized by;
// a timing reports its median and the highest of these that leaves at
// least ten samples beyond it.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// timing is one set of latency or duration samples.
type timing struct {
	vals []float64 // milliseconds
}

func (t *timing) add(d time.Duration) { t.vals = append(t.vals, ms(d)) }

func (t *timing) n() int { return len(t.vals) }

// pct returns the p-th percentile (nearest rank) in milliseconds, or
// NaN when there are no samples.
func (t *timing) pct(p float64) float64 {
	if len(t.vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), t.vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func (t *timing) median() float64 { return t.pct(50) }

// chunkedPct splits the samples, in the order they were taken, into
// the most consecutive chunks that each still support the p-th
// percentile, and returns the median of the chunks' p-th percentiles.
// A tail taken this way moves with the system's steady behaviour, not
// with one stall of the machine it runs on.
func (t *timing) chunkedPct(p float64) float64 {
	per := int(math.Ceil(10 / ((100 - p) / 100)))
	k := len(t.vals) / per
	if k <= 1 {
		return t.pct(p)
	}
	var tails []float64
	for i := 0; i < k; i++ {
		c := timing{vals: t.vals[i*len(t.vals)/k : (i+1)*len(t.vals)/k]}
		tails = append(tails, c.pct(p))
	}
	return medianOf(tails)
}

// supports reports whether at least ten samples lie beyond the p-th
// percentile.
func (t *timing) supports(p float64) bool {
	return float64(len(t.vals))*(100-p)/100 >= 10
}

// tail returns the highest percentile in tailPercentiles the sample
// count supports, with its value; ok is false when even p90 is not
// supported.
func (t *timing) tail() (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if t.supports(p) {
			return p, t.pct(p), true
		}
	}
	return 0, math.NaN(), false
}

// summary is the record form of a timing.
func (t *timing) summary() map[string]any {
	m := map[string]any{"n": t.n(), "p50_ms": round(t.median())}
	if p, v, ok := t.tail(); ok {
		m["tail"] = fmt.Sprintf("p%g", p)
		m["tail_ms"] = round(v)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianOf(xs []float64) float64 {
	t := timing{vals: xs}
	return t.median()
}

// round keeps six significant decimals for the record; metric values
// are printed with all their digits.
func round(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	return math.Round(x*1e6) / 1e6
}
