package cpuprof

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spin burns enough CPU for the profiler to have something to write,
// and allocates so that the allocs profile has samples.
func spin() error {
	x := 0
	var keep [][]byte
	for i := 0; i < 1<<24; i++ {
		x += i % 7
		if i%(1<<12) == 0 {
			keep = append(keep, make([]byte, 1<<10))
		}
	}
	if x < 0 || len(keep) == 0 {
		return errors.New("unreachable")
	}
	return nil
}

// TestRunWritesProfile: a profiled call writes non-empty profiles and
// returns the call's own result; empty paths profile nothing.
func TestRunWritesProfile(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := Run(cpu, mem, spin); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s not written: %v", path, err)
		}
	}
	want := errors.New("run failed")
	if err := Run(filepath.Join(dir, "p"), filepath.Join(dir, "m"), func() error { return want }); err != want {
		t.Fatalf("Run returned %v, want the call's error", err)
	}
	if err := Run("", "", spin); err != nil {
		t.Fatal(err)
	}
}

// TestRunBadPath: an uncreatable profile path is an error naming its
// flag, and the call is not run.
func TestRunBadPath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "p.pprof")
	for _, c := range []struct{ cpu, mem, flag string }{
		{bad, "", "-cpuprofile"},
		{"", bad, "-memprofile"},
		{filepath.Join(t.TempDir(), "cpu.pprof"), bad, "-memprofile"},
	} {
		ran := false
		err := Run(c.cpu, c.mem, func() error { ran = true; return nil })
		if err == nil || !strings.Contains(err.Error(), c.flag) || ran {
			t.Fatalf("cpu %q mem %q: err = %v, ran = %v; want an error naming %s and no run", c.cpu, c.mem, err, ran, c.flag)
		}
	}
}
