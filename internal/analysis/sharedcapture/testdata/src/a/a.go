package a

import "repro/internal/sim"

type cell struct{ lat, blocked float64 }

func bad(n int) float64 {
	sum := 0.0
	first := make([]float64, n)
	byTrial := make(map[int]float64)
	var count int
	var done int
	sim.ForEachProgress(n, 4, func(i int) {
		sum += float64(i)       // want `writes captured variable sum`
		first[0] = float64(i)   // want `writes captured variable first`
		byTrial[i] = float64(i) // want `writes captured map byTrial`
		count++                 // want `writes captured variable count`
	}, func(completed int) {
		done = completed // want `writes captured variable done`
	})
	return sum + first[0] + float64(count+done)
}

func good(n int) []cell {
	out := make([]cell, n)
	jobs := make([]int, n)
	sim.ForEachProgress(n, 0, func(i int) {
		r := sim.NewRNG(uint64(i))
		j := jobs[i]
		out[i].lat = r.Float64()
		out[j] = cell{lat: r.Float64(), blocked: r.Float64()}
		local := 0
		local++
		_ = local
	}, nil)
	return out
}

// Reads of captured state and index-local writes through derived
// indices are the documented contract; serial helpers are unaffected.
func serial(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
