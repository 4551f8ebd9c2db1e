package main

import "sort"

// summary is one metric of one workload: the median of its samples with
// quartiles, extremes and the sample count. clock says what the number is
// measured on: "host" is what the simulator costs, "virtual" is what the
// modelled library achieves, "count" is an exact count made by the program.
type summary struct {
	Unit   string  `json:"unit"`
	Clock  string  `json:"clock"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize reduces samples; it panics on none, which only a bug produces.
func summarize(unit, clock string, samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return summary{Unit: unit, Clock: clock, Median: median(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// single is the summary of a one-shot measurement.
func single(unit, clock string, v float64) summary {
	return summarize(unit, clock, []float64{v})
}

// median of sorted samples.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted samples, as Python's statistics.quantiles(s, n=4)
// (the exclusive method) gives them, so the spread computed from a result
// file agrees with the one the driver computes. A single sample is its own
// quartiles.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound is compared with.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		d = -d
	}
	return d
}
