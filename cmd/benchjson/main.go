// Command benchjson converts `go test -bench` output on stdin into a
// small JSON document so benchmark numbers can be committed and diffed
// (BENCH_kernel.json). With -o, the input is echoed to stdout unchanged
// (without -o, the JSON itself goes to stdout and the echo to stderr), so
// it composes as a pipe without hiding the bench log:
//
//	go test -run='^$' -bench=. -benchtime=1x . | go run ./cmd/benchjson -o BENCH_kernel.json
//
// A benchmark that appears more than once (`go test -count=N`) is
// recorded once: each metric is the median of its runs, and the result
// also carries the runs' count and each metric's minimum and maximum.
// Lines with no iterations or a metric that is not a finite number are
// skipped.
//
// With -baseline FILE, a previously saved bench log is parsed the same
// way and embedded under "baseline", recording a before/after pair in one
// artifact.
//
// With -compare FILE, the input is gated against a previously committed
// JSON report: the deterministic metrics (allocs/op and B/op) must stay
// within -tolerance percent of the old values, and every old benchmark
// must still exist. A repeated benchmark is gated on its medians. ns/op
// is reported but not gated unless -time-tolerance is set, because CI
// timings are noise.
//
//	go test -run='^$' -bench=. -benchtime=1x . | go run ./cmd/benchjson -compare BENCH_kernel.json
//
// benchjson exits non-zero if any input (stdin, -baseline, -compare)
// contains no benchmark lines or reports a test failure, so a bench
// smoke step in CI fails loudly instead of writing an empty file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark: its iteration count plus every reported
// metric (ns/op, B/op, allocs/op, and any ReportMetric units). A
// benchmark run more than once is folded (see fold): Iters sums the
// runs' iterations, Metrics holds each metric's median, and Runs, Min
// and Max the number of runs and each metric's extremes.
type result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Runs    int                `json:"runs,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	Min     map[string]float64 `json:"min,omitempty"`
	Max     map[string]float64 `json:"max,omitempty"`
}

// report is the emitted document.
type report struct {
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []result          `json:"benchmarks"`
	Baseline   []result          `json:"baseline,omitempty"`
}

// parse consumes a `go test -bench` log, returning its benchmarks in
// order of first appearance with repeated names folded (see fold),
// context headers (goos/goarch/pkg/cpu), and whether a FAIL line was
// seen. A line whose iteration count is below 1 is skipped, and so is a
// metric whose value is not a finite number. When echo is non-nil every
// input line is copied to it.
func parse(r io.Reader, echo io.Writer) ([]result, map[string]string, bool, error) {
	var results []result
	ctx := make(map[string]string)
	failed := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		if strings.HasPrefix(line, "FAIL") {
			failed = true
		}
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				ctx[key] = strings.TrimSpace(v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || iters < 1 {
			continue
		}
		res := result{Name: trimProcSuffix(fields[0]), Iters: iters, Metrics: make(map[string]float64)}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			res.Metrics[fields[i+1]] = v
		}
		results = append(results, res)
	}
	return fold(results), ctx, failed, sc.Err()
}

// fold merges the results that share a name (the runs of `go test
// -count=N`) into one, at the first one's place. Each metric becomes the
// median of the runs that reported it (the mean of the middle two for
// an even count), with its minimum and maximum in Min and Max; Runs
// counts the runs and Iters sums their iterations. A name seen once is
// returned as parsed.
func fold(results []result) []result {
	runs := make(map[string][]result, len(results))
	var out []result
	for _, r := range results {
		if _, seen := runs[r.Name]; !seen {
			out = append(out, r)
		}
		runs[r.Name] = append(runs[r.Name], r)
	}
	for i, first := range out {
		rs := runs[first.Name]
		if len(rs) == 1 {
			continue
		}
		f := result{Name: first.Name, Runs: len(rs), Metrics: map[string]float64{},
			Min: map[string]float64{}, Max: map[string]float64{}}
		values := map[string][]float64{}
		for _, r := range rs {
			f.Iters = min(f.Iters, math.MaxInt64-r.Iters) + r.Iters // saturates
			for unit, v := range r.Metrics {
				values[unit] = append(values[unit], v)
			}
		}
		for unit, vs := range values {
			slices.Sort(vs)
			lo, hi := vs[(len(vs)-1)/2], vs[len(vs)/2]
			// Halves first, so the sum cannot overflow; the clamp keeps
			// a rounded subnormal mean between its two values.
			f.Metrics[unit] = max(lo, min(hi, lo/2+hi/2))
			f.Min[unit], f.Max[unit] = vs[0], vs[len(vs)-1]
		}
		out[i] = f
	}
	return out
}

// trimProcSuffix drops the trailing "-N" GOMAXPROCS marker from a
// benchmark name, keeping names stable across machines.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// gates are the metrics compared against a committed report. allocs/op
// and B/op are machine-independent for deterministic code, so they gate
// hard; the floor ignores absolute wiggle below it (a +1 alloc on a
// 2-alloc benchmark is 50% but meaningless as a gate).
var gates = []struct {
	unit  string
	floor float64
}{
	{"allocs/op", 8},
	{"B/op", 1024},
}

// compare gates cur against old. tolerance and timeTolerance are
// percentages; timeTolerance <= 0 leaves ns/op informational. It returns
// human-readable report lines plus the list of violations.
func compare(old, cur []result, tolerance, timeTolerance float64) (lines, violations []string) {
	curByName := make(map[string]result, len(cur))
	for _, r := range cur {
		curByName[r.Name] = r
	}
	exceeds := func(oldV, newV, tol, floor float64) bool {
		return newV > oldV*(1+tol/100) && newV-oldV > floor
	}
	for _, o := range old {
		c, ok := curByName[o.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: benchmark missing from input (renamed or deleted?)", o.Name))
			continue
		}
		for _, g := range gates {
			oldV, ok := o.Metrics[g.unit]
			if !ok {
				continue
			}
			newV := c.Metrics[g.unit]
			line := fmt.Sprintf("%s %s: %g -> %g", o.Name, g.unit, oldV, newV)
			if exceeds(oldV, newV, tolerance, g.floor) {
				violations = append(violations, line+fmt.Sprintf(" (over %+.0f%% tolerance)", tolerance))
			} else {
				lines = append(lines, line)
			}
		}
		if oldV, ok := o.Metrics["ns/op"]; ok {
			newV := c.Metrics["ns/op"]
			line := fmt.Sprintf("%s ns/op: %g -> %g", o.Name, oldV, newV)
			if timeTolerance > 0 && exceeds(oldV, newV, timeTolerance, 0) {
				violations = append(violations, line+fmt.Sprintf(" (over %+.0f%% time tolerance)", timeTolerance))
			} else {
				lines = append(lines, line+" (informational)")
			}
		}
		delete(curByName, o.Name)
	}
	var extra []string
	for name := range curByName {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		lines = append(lines, fmt.Sprintf("%s: new benchmark (no committed reference)", name))
	}
	return lines, violations
}

// options are the parsed flags; run is separated from main for tests.
type options struct {
	out           string
	baseline      string
	compareFile   string
	tolerance     float64
	timeTolerance float64
}

// parseFile parses a saved bench log or JSON report at path. JSON files
// (committed reports) contribute their "benchmarks" section; anything
// else is parsed as a raw `go test -bench` log. Zero parsed benchmarks
// is an error either way — an empty reference would gate nothing.
func parseFile(path string) ([]result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []result
	if json.Valid(buf) {
		var rep report
		if err := json.Unmarshal(buf, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		results = rep.Benchmarks
	} else {
		results, _, _, err = parse(strings.NewReader(string(buf)), nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines", path)
	}
	return results, nil
}

func run(o options, stdin io.Reader, stdout, stderr io.Writer) error {
	echo := stdout
	if o.out == "" {
		echo = stderr
	}
	results, ctx, failed, err := parse(stdin, echo)
	if err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("input reports FAIL")
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines in input")
	}
	rep := report{Context: ctx, Benchmarks: results}
	if o.baseline != "" {
		base, err := parseFile(o.baseline)
		if err != nil {
			return err
		}
		rep.Baseline = base
	}
	if o.compareFile != "" {
		old, err := parseFile(o.compareFile)
		if err != nil {
			return err
		}
		lines, violations := compare(old, results, o.tolerance, o.timeTolerance)
		for _, l := range lines {
			fmt.Fprintln(stderr, "benchjson:", l)
		}
		for _, v := range violations {
			fmt.Fprintln(stderr, "benchjson: REGRESSION:", v)
		}
		if len(violations) > 0 {
			return fmt.Errorf("%d benchmark regression(s) vs %s", len(violations), o.compareFile)
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if o.out == "" {
		_, err := stdout.Write(buf)
		return err
	}
	return os.WriteFile(o.out, buf, 0o644)
}

func main() {
	var o options
	flag.StringVar(&o.out, "o", "", "output JSON path (default: JSON to stdout)")
	flag.StringVar(&o.baseline, "baseline", "", "optional saved bench log to embed under \"baseline\"")
	flag.StringVar(&o.compareFile, "compare", "", "committed JSON report (or raw bench log) to gate against")
	flag.Float64Var(&o.tolerance, "tolerance", 25, "allowed regression percentage for allocs/op and B/op in -compare mode")
	flag.Float64Var(&o.timeTolerance, "time-tolerance", 0, "also gate ns/op at this percentage (0 = informational only; CI timings are noisy)")
	flag.Parse()

	if err := run(o, os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
