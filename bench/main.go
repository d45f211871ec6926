// Command bench is the repository benchmark. It measures the simulator
// in host time on five workloads, each built only from the public
// packages under internal/, and checks every op's outputs.
//
// One workload, as the benchmark driver runs it (from the repository
// root, through run.sh, which builds this module first):
//
//	bash bench/run.sh --workload traffic-knee --seed 1 --seconds 10 --trace 0
//
// prints human-readable lines on standard error and, as the last line of
// standard output, one JSON object: correct, attempted, failed, and the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// --spans FILE also writes the traced run's spans as JSON.
//
// With no --workload it runs every workload in turn, each in a fresh
// child process of itself, --runs times with seeds seed, seed+1000, ...,
// and prints the median and quartiles of each metric; -o FILE writes
// them as JSON. --baseline runs two untraced sets and one traced set and
// writes all three (the form of bench/baseline.json).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	spans    string
	runs     int
	out      string
	baseline bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run in this process; empty runs all of them in child processes")
	fs.Uint64Var(&o.seed, "seed", 1997, "input seed: op i of a run uses seed+i")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement time per run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run; 0 the end-to-end metrics")
	fs.StringVar(&o.spans, "spans", "", "with --trace 1: write the traced run's spans to this JSON file")
	fs.IntVar(&o.runs, "runs", 1, "without --workload: runs per workload")
	fs.StringVar(&o.out, "o", "", "without --workload: write the summary as JSON to this file")
	fs.BoolVar(&o.baseline, "baseline", false, "without --workload: run two untraced sets and a traced set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 0 || (o.trace != 0 && o.trace != 1) || o.runs < 1 || (o.spans != "" && (o.trace != 1 || o.workload == "")) {
		fmt.Fprintln(stderr, "bench: want flags only, --seconds >= 0, --trace 0 or 1, --runs >= 1, and --spans only with --workload and --trace 1")
		return 2
	}
	if o.workload == "" {
		if err := runAll(o, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	var spans *spanLog
	if o.spans != "" {
		spans = newSpanLog()
	}
	rep, err := measure(w, o.seed, time.Duration(o.seconds)*time.Second, o.trace == 1, spans, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if spans != nil {
		if err := spans.write(o.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	return 0
}

// dist summarizes one metric over the runs of a set.
type dist struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/|Median|, the run-to-run noise a bound must
	// stay above.
	Spread float64 `json:"spread"`
}

type workloadSummary struct {
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Correct   bool            `json:"correct"`
	Metrics   map[string]dist `json:"metrics"`
}

type setSummary struct {
	Runs      int                        `json:"runs"`
	Seconds   int                        `json:"seconds"`
	Trace     int                        `json:"trace"`
	Seeds     []uint64                   `json:"seeds"`
	Workloads map[string]workloadSummary `json:"workloads"`
}

// runAll runs every workload o.runs times, one child process at a time.
func runAll(o options, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type set struct {
		name  string
		trace int
		seed  uint64
	}
	sets := []set{{"", o.trace, o.seed}}
	if o.baseline {
		// Set b uses seeds no op of set a uses.
		b := o.seed + uint64(o.runs)*1000
		sets = []set{{"a", 0, o.seed}, {"b", 0, b}, {"traced", 1, o.seed}}
	}
	out := map[string]setSummary{}
	for _, s := range sets {
		sum := setSummary{Runs: o.runs, Seconds: o.seconds, Trace: s.trace, Workloads: map[string]workloadSummary{}}
		for r := 0; r < o.runs; r++ {
			sum.Seeds = append(sum.Seeds, s.seed+uint64(r)*1000)
		}
		for _, w := range workloads {
			var reps []report
			for _, seed := range sum.Seeds {
				rep, err := runChild(exe, w.name, seed, o.seconds, s.trace, stderr)
				if err != nil {
					return err
				}
				reps = append(reps, rep)
			}
			sum.Workloads[w.name] = summarize(reps)
			printSummary(stdout, s.name, w.name, sum.Workloads[w.name], s.trace)
		}
		out[s.name] = sum
	}
	if o.out == "" {
		return nil
	}
	var v any = out[""]
	if o.baseline {
		v = out
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.out, append(buf, '\n'), 0o644)
}

// runChild runs one workload in a fresh process and parses its result
// line.
func runChild(exe, name string, seed uint64, seconds, trace int, stderr io.Writer) (report, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	if err := cmd.Run(); err != nil {
		return report{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return report{}, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return rep, nil
}

func summarize(reps []report) workloadSummary {
	ws := workloadSummary{Correct: true, Metrics: map[string]dist{}}
	vals := map[string][]float64{}
	for _, r := range reps {
		ws.Attempted += r.Attempted
		ws.Failed += r.Failed
		ws.Correct = ws.Correct && r.Correct
		for name, m := range r.Metrics {
			vals[name] = append(vals[name], m.Value)
			ws.Metrics[name] = dist{Unit: m.Unit}
		}
	}
	for name, xs := range vals {
		q1, q2, q3 := quartiles(xs)
		d := dist{Unit: ws.Metrics[name].Unit, N: len(xs), Median: q2, Q1: q1, Q3: q3}
		if q2 != 0 {
			d.Spread = (q3 - q1) / math.Abs(q2)
		}
		ws.Metrics[name] = d
	}
	return ws
}

func printSummary(w io.Writer, set, name string, ws workloadSummary, trace int) {
	label := name
	if set != "" {
		label = set + "/" + name
	}
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", label, ws.Correct, ws.Attempted, ws.Failed)
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		m := ws.Metrics[d.name]
		fmt.Fprintf(w, "  %-36s %14.6g %-6s (median of %d runs, q1 %.6g, q3 %.6g, spread %.3f)\n",
			d.name, m.Median, d.unit, m.N, m.Q1, m.Q3, m.Spread)
	}
}
