package main

import "testing"

// Reference values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3.5, 1.25, 9, 7}, [3]float64{1.8125, 5.25, 8.5}},
		{[]float64{42}, [3]float64{42, 42, 42}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		level float64
		ok    bool
	}{
		{19, 0.5, false},
		{20, 0.5, true},
		{39, 0.5, true},
		{40, 0.75, true},
		{99, 0.75, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending: tail must sort
		}
		level, v, ok := tail(xs)
		if level != c.level || ok != c.ok {
			t.Errorf("n=%d: level %g ok %v, want %g %v", c.n, level, ok, c.level, c.ok)
		}
		if beyond := c.n - int(v); ok && beyond < 10 {
			t.Errorf("n=%d: value %g has %d samples beyond it", c.n, v, beyond)
		}
	}
}
