package main

// Transcript pins: the exact stdout and returned error of a fixed set
// of invocations, one per mode and view, compared byte for byte with
// testdata/transcripts.golden. Regenerate with
//
//	go test ./cmd/netsim -run TestTranscripts -update
//
// and review the diff: any change there is a change in what netsim
// prints.

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/transcripts.golden from the current output")

// transcripts are the pinned invocations; each mutates base() unless
// it replaces the options wholesale.
var transcripts = []struct {
	name string
	mut  func(*options)
}{
	{"plain -v", func(o *options) { o.verbose = true }},
	{"torus opt-tree", func(o *options) { o.topo, o.algo = "torus", "opt-tree" }},
	{"bmin -policy dest binomial", func(o *options) { o.topo, o.policy, o.algo = "bmin", "dest", "binomial" }},
	{"bfly sequential", func(o *options) { o.topo, o.algo = "bfly", "sequential" }},
	{"-v -trace -heatmap", func(o *options) { o.verbose, o.gantt, o.heatmap = true, true, true }},
	{"-faults 2 -degraded 5 -flaky 5", func(o *options) { o.faults, o.degraded, o.flaky, o.faultSeed = 2, 5, 5, 3 }},
	{"-faults 2 partitions", func(o *options) { o.faults, o.faultSeed = 2, 1 }},
	{"-faults 8 -recover -v", func(o *options) { o.faults, o.faultSeed, o.recover, o.verbose = 8, 3, true, true }},
	{"-traffic -v", func(o *options) { *o = trafficBase(); o.verbose = true }},
	{"-traffic bursty bounded skew", func(o *options) {
		*o = trafficBase()
		o.arrival, o.admission, o.rate, o.skew = "bursty", "bounded", 2000, 0.5
	}},
	{"-traffic -faults 3", func(o *options) { *o = trafficBase(); o.faults, o.faultSeed = 3, 2 }},
	{"-churn -faults 3 -v", func(o *options) { *o = churnBase(); o.faults, o.faultSeed, o.verbose = 3, 2, true }},
	{"-churn -degree-cap 3 -repair binom -trace", func(o *options) {
		*o = churnBase()
		o.degreeCap, o.repairPolicy, o.gantt = 3, "binom", true
	}},
	{"-autotune", func(o *options) { o.autotune = true }},
	{"-autotune -recover -faults 3", func(o *options) { o.autotune, o.recover, o.faults, o.faultSeed = true, true, 3, 2 }},
	{"-autotune traffic demo", func(o *options) { *o = autotuneTrafficDemo() }},
	{"-recover without faults", func(o *options) { o.recover = true }},
}

// TestTranscripts compares every pinned invocation's stdout and error
// text with the golden file.
func TestTranscripts(t *testing.T) {
	var b strings.Builder
	for _, tc := range transcripts {
		o := base()
		tc.mut(&o)
		out, err := capture(t, func() error { return run(o) })
		errText := "none"
		if err != nil {
			errText = err.Error()
		}
		b.WriteString("=== " + tc.name + "\n" + out + "--- error: " + errText + "\n")
	}
	path := filepath.Join("testdata", "transcripts.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("transcript differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}
