package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cpuprof"
)

// capture runs fn with stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		buf := make([]byte, 1<<20)
		var out []byte
		for {
			n, err := r.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(out)
	}()
	ferr := fn()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return <-done, ferr
}

func TestRunFigure1(t *testing.T) {
	out, err := capture(t, func() error { return run(options{fig: "1", trials: 2, seed: 1, workers: 1}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "130 (paper: 130)") || !strings.Contains(out, "165 (paper: 165)") {
		t.Fatalf("figure 1 output wrong:\n%s", out)
	}
}

func TestRunRatioText(t *testing.T) {
	out, err := capture(t, func() error { return run(options{fig: "ratio", trials: 2, seed: 1, workers: 1, chart: true}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "binomial") || !strings.Contains(out, "sequential") {
		t.Fatalf("ratio output wrong:\n%s", out)
	}
}

func TestRunFigure3CSV(t *testing.T) {
	out, err := capture(t, func() error { return run(options{fig: "3", trials: 2, seed: 1, workers: 1, csv: true}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "U-mesh mean") || strings.Count(out, "\n") < 5 {
		t.Fatalf("CSV output wrong:\n%s", out)
	}
}

func TestRunHypercube(t *testing.T) {
	out, err := capture(t, func() error { return run(options{fig: "h1", trials: 1, seed: 1, workers: 1}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "OPT-cube") {
		t.Fatalf("h1 output wrong:\n%s", out)
	}
}

// TestRunRejectsNonPositiveTrials: a figure needs at least one
// placement per point; zero or negative -trials is an error naming the
// flag, not a silent fallback to the paper's 16.
func TestRunRejectsNonPositiveTrials(t *testing.T) {
	for _, trials := range []int{0, -4} {
		out, err := capture(t, func() error { return run(options{fig: "model", trials: trials, seed: 1, workers: 1}) })
		if err == nil || !strings.Contains(err.Error(), "-trials") {
			t.Fatalf("trials %d: err = %v, want a -trials error", trials, err)
		}
		if out != "" {
			t.Fatalf("trials %d: printed output before rejecting:\n%s", trials, out)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	_, err := capture(t, func() error { return run(options{fig: "nope", trials: 2, seed: 1, workers: 1}) })
	if err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunDeterministicOutput(t *testing.T) {
	f := func() string {
		out, err := capture(t, func() error { return run(options{fig: "conc", trials: 2, seed: 5, workers: 1, chart: true}) })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if f() != f() {
		t.Fatal("same seed produced different tables")
	}
}

// TestRunShardCacheMerge: the CLI flags compose end to end — two shard
// runs fill a cache, the merge run recomputes nothing and prints the
// same bytes as a serial cold run, and the summary records it.
func TestRunShardCacheMerge(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	sumPath := filepath.Join(dir, "summary.json")
	serial, err := capture(t, func() error {
		return run(options{fig: "conc", trials: 2, seed: 5, workers: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < 2; sh++ {
		out, err := capture(t, func() error {
			return run(options{fig: "conc", trials: 2, seed: 5, workers: 1,
				shard: fmt.Sprintf("%d/2", sh), cacheDir: cache})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "deferred") {
			t.Fatalf("shard %d did not defer its table:\n%s", sh, out)
		}
	}
	merged, err := capture(t, func() error {
		return run(options{fig: "conc", trials: 2, seed: 5, workers: 1,
			cacheDir: cache, resume: true, summary: sumPath})
	})
	if err != nil {
		t.Fatal(err)
	}
	if merged != serial {
		t.Fatalf("merge differs from serial cold run:\nserial:\n%s\nmerged:\n%s", serial, merged)
	}
	buf, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Computed int  `json:"computed"`
		Cached   int  `json:"cached"`
		Complete bool `json:"complete"`
	}
	if err := json.Unmarshal(buf, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Computed != 0 || sum.Cached == 0 || !sum.Complete {
		t.Fatalf("summary = %+v, want computed 0, cached > 0, complete", sum)
	}
}

func TestParseShard(t *testing.T) {
	if _, _, err := parseShard("2/2"); err == nil {
		t.Fatal("shard index == n must be rejected")
	}
	for _, bad := range []string{"junk", "1/2/3", "1/2x", "1x/2", "1", "/2", "1/"} {
		if _, _, err := parseShard(bad); err == nil || !strings.Contains(err.Error(), "-shard") {
			t.Fatalf("parseShard(%q) err = %v, want a -shard error", bad, err)
		}
	}
	i, n, err := parseShard("1/4")
	if err != nil || i != 1 || n != 4 {
		t.Fatalf("parseShard(1/4) = %d, %d, %v", i, n, err)
	}
	i, n, err = parseShard("")
	if err != nil || i != 0 || n != 1 {
		t.Fatalf("parseShard(\"\") = %d, %d, %v", i, n, err)
	}
}

// TestRunFigureF5: the churn figure prints all three policy tables and
// is reproducible run to run.
func TestRunFigureF5(t *testing.T) {
	f := func() string {
		out, err := capture(t, func() error { return run(options{fig: "f5", trials: 2, seed: 3, workers: 1}) })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out := f()
	for _, want := range []string{
		"F5a: completion latency under churn",
		"F5b: delivered fraction under churn",
		"F5c: repair sends under churn",
		"incremental (mesh)", "binomial (BMIN)", "reachable (mesh)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in f5 output:\n%s", want, out)
		}
	}
	if out != f() {
		t.Fatal("same seed produced different f5 tables")
	}
}

// TestCPUProfileKeepsOutput: a run under -cpuprofile or -memprofile
// prints exactly what the same run prints without it and leaves a
// non-empty profile; an uncreatable profile path is an error naming its
// flag, and nothing runs.
func TestCPUProfileKeepsOutput(t *testing.T) {
	o := options{fig: "ratio", trials: 2, seed: 1, workers: 1}
	want, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "missing", "p.pprof")
	for _, c := range []struct {
		flag  string
		paths func(profile string) (cpu, mem string)
	}{
		{"-cpuprofile", func(p string) (string, string) { return p, "" }},
		{"-memprofile", func(p string) (string, string) { return "", p }},
	} {
		profile := filepath.Join(t.TempDir(), "p.pprof")
		cpu, mem := c.paths(profile)
		got, err := capture(t, func() error { return cpuprof.Run(cpu, mem, func() error { return run(o) }) })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("stdout under %s differs:\n got %q\nwant %q", c.flag, got, want)
		}
		if fi, err := os.Stat(profile); err != nil || fi.Size() == 0 {
			t.Errorf("%s profile %s missing or empty: %v", c.flag, profile, err)
		}
		cpu, mem = c.paths(bad)
		got, err = capture(t, func() error { return cpuprof.Run(cpu, mem, func() error { return run(o) }) })
		if err == nil || !strings.Contains(err.Error(), c.flag) || got != "" {
			t.Errorf("uncreatable %s path: err = %v, stdout %q; want an error naming the flag and no run", c.flag, err, got)
		}
	}
}
