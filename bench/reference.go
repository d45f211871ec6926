package main

import (
	"fmt"
	"syscall"

	"repro/internal/sim"
	"repro/internal/wallclock"
)

// refKernel is the yardstick the end-to-end timings are measured in.
//
// The benchmark divides each op's host time by the time of this fixed
// kernel run beside it. On a shared VM the host's speed drifts by tens
// of percent over seconds (measured on a 2-vCPU 2.1 GHz Xeon guest: one
// traffic op ran 68 ms for minutes and 110-125 ms for seconds at a
// time), and the drift moves every raw timing together; the ratio
// cancels most of it. Over ten 10-second runs the ratio's spread was
// 0.03-0.15 where the raw median's was 0.10-0.29. The kernel is frozen:
// changing it changes the unit of every end-to-end timing.
type refKernel struct {
	// table is the working set: 1 MB, more than a core's L2 cache, like
	// the simulator's channel and worm arrays. It is mapped outside the
	// Go heap, so it neither shifts the program's garbage-collection
	// pacing nor costs the collector anything.
	table []byte
	sink  byte
}

func newRefKernel() (*refKernel, error) {
	b, err := syscall.Mmap(-1, 0, 1<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel table: %w", err)
	}
	return &refKernel{table: b}, nil
}

// after returns the reference time to set beside an op that took opMS:
// the median of one kernel run per 100 ms of op time (1 to 25 runs), so
// a multi-second op is compared with more than a 6 ms glimpse of the
// host's speed.
func (k *refKernel) after(opMS float64) float64 {
	n := 1 + int(opMS/100)
	if n > 25 {
		n = 25
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = k.ms()
	}
	return sim.Median(xs)
}

// ms runs a fixed 600k-step pseudo-random read-modify-write walk over
// the table (about 5.5 ms on the Xeon above) and returns its host time in
// milliseconds.
func (k *refKernel) ms() float64 {
	t0 := wallclock.Now()
	x := uint32(2463534242)
	var acc byte
	for i := 0; i < 600000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & (1<<20 - 1)
		if k.table[j]&1 == 0 {
			acc += k.table[j]
		} else {
			acc ^= byte(x)
		}
		k.table[j] = acc + byte(i)
	}
	k.sink += acc
	return millis(wallclock.Since(t0))
}
