package main

import (
	"bytes"
	"context"
	"math"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/wallclock"
)

func TestLayerOfStack(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/wormhole.(*Network).stepFast"}, "wormhole"},
		{[]string{"repro/internal/mesh.(*Mesh).Route", "repro/internal/wormhole.(*Network).routeHeaderFast"}, "topology"},
		{[]string{"repro/internal/fault.(*Plan).Up"}, "fault"},
		{[]string{"repro/internal/traffic.(*engine).deliver"}, "delivery"},
		{[]string{"repro/internal/recover.Reachable"}, "delivery"},
		{[]string{"repro/internal/sim.(*EventQueue).down"}, "eventq"},
		{[]string{"repro/internal/plan.RepairSends"}, "planner"},
		{[]string{"repro/internal/tuner.(*Policy).Choose"}, "tuner"},
		{[]string{"repro/internal/exp.(*Suite).sweep.func1"}, "runner"},
		{[]string{"runtime.mallocgc", "repro/internal/traffic.Run"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "repro/internal/traffic.Run"}, "runtime"},
		// The preemption frame is skipped: the interrupted code takes it.
		{[]string{"runtime.asyncPreempt", "repro/internal/wormhole.(*Network).stepFast"}, "wormhole"},
		// Standard-library frames pass the sample to their caller.
		{[]string{"sort.insertionSort_func", "sort.pdqsort_func", "repro/internal/chain.New"}, "planner"},
		{[]string{"slices.SortFunc[go.shape.int]", "repro/internal/sim.Percentile"}, "eventq"},
		{[]string{"syscall.Syscall", "os.(*File).Write", "main.main"}, "other"},
		{nil, "other"},
	} {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("layerOfStack(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func burn(d float64) float64 {
	x := 0.0
	for t0 := wallclock.Now(); wallclock.Since(t0).Seconds() < d; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

var sink float64

// The decoder reads a profile the runtime writes: labelled samples are
// found, attributed to the burning function, and shares sum to 1.
func TestParseProfileCapturedHere(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	pprof.Do(context.Background(), pprof.Labels(labelKey, labelOp), func(context.Context) { sink += burn(0.4) })
	sink += burn(0.1)
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labelled, inBurn int64
	for _, s := range samples {
		if s.labels[labelKey] != labelOp {
			continue
		}
		labelled += s.count
		for _, fn := range s.stack {
			// "main.burn" in a built command, "repro/bench.burn" in its test.
			if strings.HasSuffix(fn, ".burn") {
				inBurn += s.count
				break
			}
		}
	}
	if labelled < 10 || inBurn < labelled*9/10 {
		t.Fatalf("%d labelled samples, %d in burn; want >= 10, nearly all in burn", labelled, inBurn)
	}
	shares, total := layerShares(samples, labelKey, labelOp)
	if total != labelled {
		t.Errorf("layerShares counted %d samples, want %d", total, labelled)
	}
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	sink += burn(0.05)
	pprof.StopCPUProfile()
	if _, err := parseProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("half a profile decoded without error")
	}
}
