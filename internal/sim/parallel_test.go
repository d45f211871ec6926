package sim

import (
	"sync/atomic"
	"testing"
)

// perIndex is a nontrivial index-local computation: each index derives
// its own RNG stream and folds a few draws, so any cross-index
// interference or double-visit shows up as a value mismatch, not just
// a race report.
func perIndex(i int) float64 {
	r := NewRNG(uint64(i)*0x9e37 + 1)
	v := 0.0
	for k := 0; k < 8; k++ {
		v += r.Float64()
	}
	return v
}

// TestForEachWorkerCountInvariance is the index-local-state contract
// from ForEachProgress's doc comment as a property: the result vector must be
// bit-for-bit identical no matter how many workers split the range.
func TestForEachWorkerCountInvariance(t *testing.T) {
	const n = 257 // odd, not a multiple of any worker count below
	serial := make([]float64, n)
	ForEachProgress(n, 1, func(i int) { serial[i] = perIndex(i) }, nil)

	for _, workers := range []int{2, 3, 8, 16} {
		got := make([]float64, n)
		ForEachProgress(n, workers, func(i int) { got[i] = perIndex(i) }, nil)
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: index %d = %v, want %v (serial)", workers, i, got[i], serial[i])
			}
		}
	}
}

// TestForEachMoreWorkersThanItems pins the clamp: asking for far more
// workers than items must still visit every index exactly once and
// terminate (run under -race in CI).
func TestForEachMoreWorkersThanItems(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7} {
		var visits [8]int32
		ForEachProgress(n, 64, func(i int) { atomic.AddInt32(&visits[i], 1) }, nil)
		for i := 0; i < n; i++ {
			if visits[i] != 1 {
				t.Fatalf("n=%d workers=64: index %d visited %d times", n, i, visits[i])
			}
		}
		for i := n; i < len(visits); i++ {
			if visits[i] != 0 {
				t.Fatalf("n=%d workers=64: out-of-range index %d visited", n, i)
			}
		}
	}
}

// TestForEachDegenerateRanges pins n=0 and negative n: fn must never
// run, and the call must return rather than hang on an empty channel.
func TestForEachDegenerateRanges(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		called := int32(0)
		ForEachProgress(n, 8, func(i int) { atomic.AddInt32(&called, 1) }, nil)
		if called != 0 {
			t.Fatalf("n=%d: fn called %d times", n, called)
		}
	}
}

// TestForEachDefaultWorkers exercises the workers<=0 path, which clamps
// to GOMAXPROCS and must preserve the same exactly-once guarantee.
func TestForEachDefaultWorkers(t *testing.T) {
	const n = 100
	var visits [n]int32
	ForEachProgress(n, 0, func(i int) { atomic.AddInt32(&visits[i], 1) }, nil)
	ForEachProgress(n, -3, func(i int) { atomic.AddInt32(&visits[i], 1) }, nil)
	for i, v := range visits {
		if v != 2 {
			t.Fatalf("index %d visited %d times across two runs, want 2", i, v)
		}
	}
}
