package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestBadInputsReturnErrors: inputs a fabric constructor, sim.Sample,
// the calibration placement or the churn schedule generator would
// panic on, and inputs that would run silently wrong, each return an
// error naming the offending flag before anything is printed.
func TestBadInputsReturnErrors(t *testing.T) {
	for _, tc := range []struct {
		name, flag string
		mut        func(*options)
	}{
		{"bmin -nodes 100", "-nodes", func(o *options) { o.topo, o.nodes = "bmin", 100 }},
		{"bmin -nodes 0", "-nodes", func(o *options) { o.topo, o.nodes = "bmin", 0 }},
		{"bfly -nodes 96", "-nodes", func(o *options) { o.topo, o.nodes = "bfly", 96 }},
		{"mesh -w 0", "-w", func(o *options) { o.w = 0 }},
		{"mesh -w 100000 -h 100000", "-w", func(o *options) { o.w, o.h = 100000, 100000 }},
		{"torus -w 2", "-w", func(o *options) { o.topo, o.w = "torus", 2 }},
		{"-k 0", "-k", func(o *options) { o.k = 0 }},
		{"-k -5", "-k", func(o *options) { o.k = -5 }},
		{"-k 1", "-k", func(o *options) { o.k = 1 }},
		{"-addrbytes -4", "-addrbytes", func(o *options) { o.addrB = -4 }},
		{"-deadline -5", "-deadline", func(o *options) { o.deadline = -5 }},
		{"-faults NaN", "-faults", func(o *options) { o.faults = math.NaN() }},
		{"-churn -churn-rate NaN", "-churn-rate", func(o *options) { *o = churnBase(); o.churnRate = math.NaN() }},
		{"-churn -rejoin NaN", "-rejoin", func(o *options) { *o = churnBase(); o.rejoinFrac = math.NaN() }},
	} {
		o := base()
		tc.mut(&o)
		out, err := capture(t, func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return run(o)
		})
		switch {
		case err == nil:
			t.Errorf("%s: accepted", tc.name)
		case strings.HasPrefix(err.Error(), "panic:") || !strings.Contains(err.Error(), tc.flag):
			t.Errorf("%s: err = %v, want an error naming %s", tc.name, err, tc.flag)
		case out != "":
			t.Errorf("%s: printed before failing:\n%s", tc.name, out)
		}
	}
}
