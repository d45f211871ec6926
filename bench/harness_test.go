package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite expected.json from the digests of op seeds 1997 and 1998")

// Every workload runs minOps ops, verifies them and matches the recorded
// digests. With -update it records them instead.
func TestSmokeAllWorkloads(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	ref, err := newRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]map[string]string{}
	for _, w := range workloads {
		s := &setUps{w: w, p: newProbe(false, nil)}
		if err := s.upFront(); err != nil {
			t.Fatal(err)
		}
		r, err := loop{p: s.p, ref: ref, between: s.between()}.run(s.op, 1997, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.attempted != minOps || len(r.errs) > 0 {
			t.Fatalf("%s: %d ops attempted, errors %v", w.name, r.attempted, r.errs)
		}
		recorded[w.name] = map[string]string{}
		for k, res := range r.results {
			recorded[w.name][strconv.Itoa(1997+k)] = res.digest
		}
		if *update {
			continue
		}
		if err := digestCheck(w, 1997, r, io.Discard); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	if *update {
		buf, err := json.MarshalIndent(recorded, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// An op's digest depends on its seed only: not on the ops before it on a
// reused fabric (mcast-1m) or a reused policy surface (traffic-faulted),
// nor on which set-up built it.
func TestDigestStableAcrossRuns(t *testing.T) {
	for _, name := range []string{"mcast-1m", "traffic-faulted"} {
		w, _ := workloadByName(name)
		var digests []string
		for i := 0; i < 2; i++ {
			op, err := w.setup(newProbe(false, nil))
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{11, 12, 11} {
				res, err := op(seed, func(f func() error) error { return f() })
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				digests = append(digests, res.digest)
			}
		}
		for i, d := range digests {
			if want := digests[i%3%2]; d != want {
				t.Errorf("%s: run %d digest %s, want %s", name, i, d, want)
			}
		}
	}
}

// A traced run reports every per-layer metric, its shares sum to 1, and
// the traced ops reproduce the untraced ones.
func TestTracedRunReportsPerLayer(t *testing.T) {
	w, _ := workloadByName("traffic-faulted")
	spans := newSpanLog()
	rep, err := measure(w, 1997, 0, true, spans, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted != 2*minOps {
		t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(rep.Metrics), len(perLayer))
	}
	sum := 0.0
	for _, l := range layers {
		sum += rep.Metrics[l+".self_share"].Value
	}
	if math.Abs(sum-1) > 0.02 && rep.Metrics["trace.samples"].Value > 0 {
		t.Errorf("self shares sum to %g", sum)
	}
	for _, name := range []string{"tuner.choose_calls_per_op", "core.plan_calls_per_op", "chain.less_calls_per_req", "wormhole.flit_hops_per_op"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %g, want > 0", name, rep.Metrics[name].Value)
		}
	}
	var ops, plans int
	for _, s := range spans.spans {
		switch s.Name {
		case "op":
			ops++
		case "plan":
			plans++
			if parent := spans.spans[s.Parent-1]; parent.Name != "op" || parent.Op != s.Op {
				t.Errorf("plan span %d has parent %q of op %d, want its op %d", s.ID, parent.Name, parent.Op, s.Op)
			}
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
	if ops != minOps || plans == 0 {
		t.Errorf("%d op spans and %d plan spans, want %d and some", ops, plans, minOps)
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), here %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%d metrics in BENCHMARK.json, %d here", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], here %s [%s]", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
