package main

import (
	"sort"

	"repro/internal/sim"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (its default,
// "exclusive" interpolation), so spreads computed here and by scripts
// reading the JSON agree. One sample is its own quartiles; none gives
// zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tailPermille are the percentiles a timing tail is reported at, in
// thousandths, highest first. Integers keep the "samples beyond" count
// exact: in floating point 100*(1-0.9) is just under 10.
var tailPermille = []int{999, 990, 900, 750, 500}

// tail returns the highest percentile of xs (as a fraction) that has at
// least ten samples beyond its rank, and its value by sim.Percentile's
// exact-rank estimator. With fewer than twenty samples no level
// qualifies and ok is false; the median is returned so the caller still
// has a number.
func tail(xs []float64) (level, value float64, ok bool) {
	n := len(xs)
	for _, pm := range tailPermille {
		rank := (n*pm + 999) / 1000
		if n-rank >= 10 {
			p := float64(pm) / 1000
			return p, sim.Percentile(xs, p), true
		}
	}
	return 0.5, sim.Median(xs), false
}
