package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleLog = `goos: linux
goarch: amd64
pkg: repro
cpu: test
BenchmarkKernel-8    	     100	    123456 ns/op	    2048 B/op	      10 allocs/op
BenchmarkFigure2-8   	       1	  99999999 ns/op	 5000000 B/op	   16799 allocs/op
PASS
`

func runWith(t *testing.T, o options, stdin string) (string, string, error) {
	t.Helper()
	var out, errw strings.Builder
	err := run(o, strings.NewReader(stdin), &out, &errw)
	return out.String(), errw.String(), err
}

func TestRunEmitsJSON(t *testing.T) {
	out, _, err := runWith(t, options{}, sampleLog)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out)
	}
	if len(rep.Benchmarks) != 2 || rep.Benchmarks[0].Name != "BenchmarkKernel" {
		t.Fatalf("benchmarks = %+v", rep.Benchmarks)
	}
	if rep.Benchmarks[0].Metrics["allocs/op"] != 10 {
		t.Fatalf("metrics = %+v", rep.Benchmarks[0].Metrics)
	}
}

// A renamed benchmark (or a bad -bench regexp) must not silently write
// an empty report: zero parsed lines is a hard error.
func TestRunZeroBenchmarksFails(t *testing.T) {
	_, _, err := runWith(t, options{}, "PASS\nok  \trepro\t0.01s\n")
	if err == nil || !strings.Contains(err.Error(), "no benchmark lines") {
		t.Fatalf("err = %v, want no-benchmark-lines error", err)
	}
}

func TestRunFailInputFails(t *testing.T) {
	_, _, err := runWith(t, options{}, sampleLog+"FAIL\n")
	if err == nil || !strings.Contains(err.Error(), "FAIL") {
		t.Fatalf("err = %v, want FAIL error", err)
	}
}

// writeReport commits a report JSON for -compare tests.
func writeReport(t *testing.T, benchmarks []result) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "old.json")
	buf, err := json.Marshal(report{Benchmarks: benchmarks})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	old := writeReport(t, []result{
		{Name: "BenchmarkKernel", Metrics: map[string]float64{"allocs/op": 10, "B/op": 2048, "ns/op": 1}},
		{Name: "BenchmarkFigure2", Metrics: map[string]float64{"allocs/op": 16000, "B/op": 4800000}},
	})
	// Input is sampleLog: Kernel identical, Figure2 within 25% of old.
	_, errw, err := runWith(t, options{compareFile: old, tolerance: 25}, sampleLog)
	if err != nil {
		t.Fatalf("err = %v\n%s", err, errw)
	}
	// ns/op moved 123456x but is informational by default.
	if !strings.Contains(errw, "informational") {
		t.Fatalf("expected informational ns/op line:\n%s", errw)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	old := writeReport(t, []result{
		{Name: "BenchmarkFigure2", Metrics: map[string]float64{"allocs/op": 10000}},
	})
	_, errw, err := runWith(t, options{compareFile: old, tolerance: 25}, sampleLog)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("err = %v, want regression (16799 allocs vs 10000 +25%%)\n%s", err, errw)
	}
	if !strings.Contains(errw, "REGRESSION") {
		t.Fatalf("expected REGRESSION line:\n%s", errw)
	}
}

// Small absolute drifts below the gate floor pass even when the
// relative change is large: +2 allocs on a 4-alloc benchmark is not a
// regression worth failing CI over.
func TestCompareFloorAbsorbsTinyDrift(t *testing.T) {
	old := writeReport(t, []result{
		{Name: "BenchmarkKernel", Metrics: map[string]float64{"allocs/op": 4}},
	})
	_, errw, err := runWith(t, options{compareFile: old, tolerance: 25}, sampleLog)
	if err != nil {
		t.Fatalf("err = %v (10 vs 4 allocs is +150%% but only +6 absolute)\n%s", err, errw)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	old := writeReport(t, []result{
		{Name: "BenchmarkGone", Metrics: map[string]float64{"allocs/op": 10}},
	})
	_, _, err := runWith(t, options{compareFile: old, tolerance: 25}, sampleLog)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("err = %v, want missing-benchmark failure", err)
	}
}

func TestCompareTimeToleranceGatesNsOp(t *testing.T) {
	old := writeReport(t, []result{
		{Name: "BenchmarkKernel", Metrics: map[string]float64{"ns/op": 1000}},
	})
	_, _, err := runWith(t, options{compareFile: old, tolerance: 25, timeTolerance: 50}, sampleLog)
	if err == nil {
		t.Fatal("123456 ns/op vs 1000 must fail a 50% time gate")
	}
}

// An empty or unparseable reference would gate nothing; treat it as an
// error rather than a vacuous pass.
func TestCompareEmptyReferenceFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := runWith(t, options{compareFile: path}, sampleLog)
	if err == nil || !strings.Contains(err.Error(), "no benchmark lines") {
		t.Fatalf("err = %v, want empty-reference error", err)
	}
}

func TestBaselineRawLogEmbeds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.log")
	if err := os.WriteFile(path, []byte(sampleLog), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runWith(t, options{baseline: path}, sampleLog)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Baseline) != 2 {
		t.Fatalf("baseline = %+v", rep.Baseline)
	}
}

func TestTrimProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkKernel-8":    "BenchmarkKernel",
		"BenchmarkKernel":      "BenchmarkKernel",
		"BenchmarkOpt-mesh-16": "BenchmarkOpt-mesh",
	} {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestFoldRepeats: `go test -count=N` prints a benchmark N times, and
// the report records it once, at its first place, with each metric's
// median over the runs and the runs' count, minimum and maximum. An
// even count takes the mean of the middle two; a metric only some runs
// report is folded over those. -compare gates the median: a reference
// at the median passes at 0% tolerance, one 50 allocs below it fails.
func TestFoldRepeats(t *testing.T) {
	for _, tc := range []struct {
		name string
		log  string
		want []result
	}{
		{
			name: "odd",
			log: `BenchmarkKernel-2   1   300 ns/op   1000 allocs/op
BenchmarkOther-2    4   7 ns/op
BenchmarkKernel-2   1   100 ns/op   1200 allocs/op
BenchmarkKernel-2   1   200 ns/op   1100 allocs/op
`,
			want: []result{
				{Name: "BenchmarkKernel", Iters: 3, Runs: 3,
					Metrics: map[string]float64{"ns/op": 200, "allocs/op": 1100},
					Min:     map[string]float64{"ns/op": 100, "allocs/op": 1000},
					Max:     map[string]float64{"ns/op": 300, "allocs/op": 1200}},
				{Name: "BenchmarkOther", Iters: 4, Metrics: map[string]float64{"ns/op": 7}},
			},
		},
		{
			name: "even",
			log: `BenchmarkKernel-2   2   400 ns/op   1000 allocs/op
BenchmarkKernel-2   2   100 ns/op   1300 allocs/op
BenchmarkKernel-2   2   200 ns/op   1000 allocs/op   5 flit-hops/s
BenchmarkKernel-2   2   300 ns/op   2000 allocs/op   7 flit-hops/s
`,
			want: []result{
				{Name: "BenchmarkKernel", Iters: 8, Runs: 4,
					Metrics: map[string]float64{"ns/op": 250, "allocs/op": 1150, "flit-hops/s": 6},
					Min:     map[string]float64{"ns/op": 100, "allocs/op": 1000, "flit-hops/s": 5},
					Max:     map[string]float64{"ns/op": 400, "allocs/op": 2000, "flit-hops/s": 7}},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, _, _, err := parse(strings.NewReader(tc.log), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("folded\n got %+v\nwant %+v", got, tc.want)
			}
			median := tc.want[0].Metrics["allocs/op"]
			for _, ref := range []float64{median, median - 50} {
				old := writeReport(t, []result{{Name: "BenchmarkKernel", Metrics: map[string]float64{"allocs/op": ref}}})
				_, errw, err := runWith(t, options{compareFile: old}, tc.log)
				if (err != nil) != (ref != median) {
					t.Fatalf("compare against %g allocs/op (median %g): err = %v\n%s", ref, median, err, errw)
				}
			}
		})
	}
}

// gateLog is a slice of a real `make bench-gate` log: context headers,
// plain, sub-benchmark and ReportMetric lines, and a package trailer.
const gateLog = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkOptTreeDP-2                	       1	   1080098 ns/op	 1065024 B/op	       3 allocs/op
BenchmarkStepKernel/funnel/fast-2   	       1	  13120859 ns/op	  45288528 flit-hops/s	       0 B/op	       0 allocs/op
BenchmarkStepKernel/stall/fast-2                        	       1	    198817 ns/op	 184512988 cycles/s	       0 B/op	       0 allocs/op
BenchmarkScale/mesh1024x1024/serial-2                   	       1	   2057027 ns/op	  182544 B/op	      43 allocs/op
PASS
ok  	repro	1.624s
`

// FuzzParse feeds arbitrary logs to the parser. No input may panic it;
// every result it returns has a name with no surrounding space, at least
// one iteration and only finite metrics (so the report always encodes
// as JSON); and every folded result has each metric's minimum <= median
// <= maximum, for the same set of metrics. The seeds are a real gate
// log, a repeated-name log and a failing log.
func FuzzParse(f *testing.F) {
	f.Add(gateLog)
	f.Add(`BenchmarkKernel-2   1   300 ns/op   10 allocs/op
BenchmarkKernel-2   1   NaN ns/op   12 allocs/op
BenchmarkKernel-2   0   200 ns/op   +Inf allocs/op
BenchmarkKernel-2   1   200 ns/op   11 allocs/op
`)
	f.Add(sampleLog + "--- FAIL: BenchmarkKernel\nFAIL\trepro\t0.01s\n")
	f.Fuzz(func(t *testing.T, log string) {
		results, _, _, err := parse(strings.NewReader(log), nil)
		if err != nil {
			return // a line too long for the scanner
		}
		if _, err := json.Marshal(report{Benchmarks: results}); err != nil {
			t.Fatalf("report does not encode: %v", err)
		}
		for _, r := range results {
			if r.Name == "" || strings.TrimSpace(r.Name) != r.Name {
				t.Fatalf("untrimmed name %q", r.Name)
			}
			if r.Iters < 1 {
				t.Fatalf("%s: %d iterations", r.Name, r.Iters)
			}
			for unit, v := range r.Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: %s = %g", r.Name, unit, v)
				}
				if r.Runs == 0 {
					continue
				}
				lo, okLo := r.Min[unit]
				hi, okHi := r.Max[unit]
				if !okLo || !okHi || !(lo <= v && v <= hi) {
					t.Fatalf("%s: %s min %g (%v) median %g max %g (%v)", r.Name, unit, lo, okLo, v, hi, okHi)
				}
			}
			if r.Runs != 0 && (r.Runs < 2 || len(r.Min) != len(r.Metrics) || len(r.Max) != len(r.Metrics)) {
				t.Fatalf("%s: folded %d runs with %d metrics, %d minima, %d maxima", r.Name, r.Runs, len(r.Metrics), len(r.Min), len(r.Max))
			}
		}
	})
}
