// Package cpuprof wraps a command's run in optional host profiles, so
// that a performance change can start from a profile of the real code
// path (`netsim … -cpuprofile FILE -memprofile FILE`, `go tool pprof
// FILE`) instead of a throwaway test.
package cpuprof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Run calls fn and returns its error. Unless cpu is empty, it records a
// CPU profile of the call to cpu; unless mem is empty, it writes the
// heap's allocs profile to mem once the call has returned. Profiling
// samples the host; it never changes what fn computes or prints. Both
// files are created before fn runs, so a path that cannot be created is
// an error naming its flag and nothing runs. An error writing a profile
// is returned when fn itself succeeded.
func Run(cpu, mem string, fn func() error) error {
	cpuFile, err := create("-cpuprofile", cpu)
	if err != nil {
		return err
	}
	memFile, err := create("-memprofile", mem)
	if err != nil {
		closeQuiet(cpuFile)
		return err
	}
	if cpuFile != nil {
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			closeQuiet(cpuFile)
			closeQuiet(memFile)
			return fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	err = fn()
	if cpuFile != nil {
		pprof.StopCPUProfile()
		err = keepFirst(err, "-cpuprofile", cpuFile.Close())
	}
	if memFile != nil {
		runtime.GC() // account every allocation the run made
		err = keepFirst(err, "-memprofile", pprof.Lookup("allocs").WriteTo(memFile, 0))
		err = keepFirst(err, "-memprofile", memFile.Close())
	}
	return err
}

// create opens path for a profile; an empty path asks for none.
func create(flag, path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flag, err)
	}
	return f, nil
}

// closeQuiet closes a profile file nothing was written to; its error
// would only hide the one being reported.
func closeQuiet(f *os.File) {
	if f != nil {
		_ = f.Close()
	}
}

// keepFirst returns err, or the profile error perr under its flag when
// err is nil.
func keepFirst(err error, flag string, perr error) error {
	if err == nil && perr != nil {
		return fmt.Errorf("%s: %w", flag, perr)
	}
	return err
}
