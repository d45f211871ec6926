// Package cpuprof wraps a command's run in an optional CPU profile, so
// that a performance change can start from a profile of the real code
// path (`netsim … -cpuprofile FILE`, `go tool pprof FILE`) instead of a
// throwaway test.
package cpuprof

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// Run calls fn and returns its error. Unless path is empty, it records a
// CPU profile of the call to path. Profiling samples the host's CPU; it
// never changes what fn computes or prints. An error creating or writing
// the profile is returned when fn itself succeeded.
func Run(path string, fn func() error) error {
	if path == "" {
		return fn()
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // nothing was written; the start error is the one to report
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	err = fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("-cpuprofile: %w", cerr)
	}
	return err
}
