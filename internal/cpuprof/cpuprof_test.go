package cpuprof

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spin burns enough CPU for the profiler to have something to write.
func spin() error {
	x := 0
	for i := 0; i < 1<<24; i++ {
		x += i % 7
	}
	if x < 0 {
		return errors.New("unreachable")
	}
	return nil
}

// TestRunWritesProfile: a profiled call writes a non-empty profile and
// returns the call's own result; an empty path profiles nothing.
func TestRunWritesProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := Run(path, spin); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("profile %s not written: %v", path, err)
	}
	want := errors.New("run failed")
	if err := Run(filepath.Join(t.TempDir(), "p"), func() error { return want }); err != want {
		t.Fatalf("Run returned %v, want the call's error", err)
	}
	if err := Run("", spin); err != nil {
		t.Fatal(err)
	}
}

// TestRunBadPath: an uncreatable profile path is an error naming the
// flag, and the call is not run.
func TestRunBadPath(t *testing.T) {
	ran := false
	err := Run(filepath.Join(t.TempDir(), "missing", "cpu.pprof"), func() error { ran = true; return nil })
	if err == nil || !strings.Contains(err.Error(), "-cpuprofile") || ran {
		t.Fatalf("err = %v, ran = %v; want an error naming -cpuprofile and no run", err, ran)
	}
}
