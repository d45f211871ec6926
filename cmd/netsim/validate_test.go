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
		{"-bytes -8", "-bytes", func(o *options) { o.bytes = -8 }},
		{"-traffic -bytes -8", "-bytes", func(o *options) { *o = trafficBase(); o.bytes = -8 }},
		{"-addrbytes -4", "-addrbytes", func(o *options) { o.addrB = -4 }},
		{"-deadline -5", "-deadline", func(o *options) { o.deadline = -5 }},
		{"-faults NaN", "-faults", func(o *options) { o.faults = math.NaN() }},
		{"-churn -churn-rate NaN", "-churn-rate", func(o *options) { *o = churnBase(); o.churnRate = math.NaN() }},
		{"-churn -rejoin NaN", "-rejoin", func(o *options) { *o = churnBase(); o.rejoinFrac = math.NaN() }},
		{"-traffic -rate NaN", "-rate", func(o *options) { *o = trafficBase(); o.rate = math.NaN() }},
		{"-traffic -rate +Inf", "-rate", func(o *options) { *o = trafficBase(); o.rate = math.Inf(1) }},
		{"-traffic -skew NaN", "-skew", func(o *options) { *o = trafficBase(); o.skew = math.NaN() }},
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

// TestChannelBudget: a fabric whose channel count is over maxChannels is
// rejected by validate, before any table is allocated, with an error
// naming its size flags and the count; the largest fabrics the
// benchmarks and figures build stay within the budget. It calls validate
// only: running the rejected rows would attempt the allocation wherever
// the budget is missing.
func TestChannelBudget(t *testing.T) {
	for _, tc := range []struct {
		name        string
		mut         func(*options)
		flag, count string // "" when the fabric is within budget
	}{
		{"mesh 18000x18000", func(o *options) { o.w, o.h = 18000, 18000 }, "-w=18000 -h=18000", "1943928000 channels"},
		{"torus 3000x3000", func(o *options) { o.topo, o.w, o.h = "torus", 3000, 3000 }, "-w=3000 -h=3000", "90000000 channels"},
		{"bmin 2^25", func(o *options) { o.topo, o.nodes = "bmin", 1<<25 }, "-nodes=33554432", "1677721600 channels"},
		{"bfly 2^24", func(o *options) { o.topo, o.nodes = "bfly", 1<<24 }, "-nodes=16777216", "419430400 channels"},
		{"mesh 1024x1024", func(o *options) { o.w, o.h = 1024, 1024 }, "", ""},
		{"torus 1024x1024", func(o *options) { o.topo, o.w, o.h = "torus", 1024, 1024 }, "", ""},
		{"bmin 65536", func(o *options) { o.topo, o.nodes = "bmin", 65536 }, "", ""},
		{"bfly 2^21", func(o *options) { o.topo, o.nodes = "bfly", 1<<21 }, "", ""},
	} {
		o := base()
		tc.mut(&o)
		err := o.validate()
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.flag == "":
		case err == nil:
			t.Errorf("%s: accepted", tc.name)
		case !strings.Contains(err.Error(), tc.flag) || !strings.Contains(err.Error(), tc.count):
			t.Errorf("%s: err = %v, want one naming %s and %s", tc.name, err, tc.flag, tc.count)
		}
	}
}
