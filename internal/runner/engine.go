package runner

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/wallclock"
)

// Cell is one independent unit of a sweep: a key describing the
// computation and a closure performing it. Run must be a pure function
// of the key (plus the simulator code itself): the engine may satisfy
// the cell from cache instead of calling Run, on this machine or
// another shard's.
type Cell struct {
	Key Key
	Run func() (Result, error)
}

// Exec configures how cell manifests execute. The zero value runs every
// cell in-process with no cache — exactly the pre-engine behavior. One
// Exec is typically shared across all figures of a CLI invocation so
// the summary accumulates whole-run totals.
type Exec struct {
	// Workers bounds the sim.ForEachProgress fan-out; 0 = GOMAXPROCS.
	Workers int
	// Shard/NShards select an i-of-n slice of each manifest for
	// cross-machine splitting. Ownership is cell-index mod NShards over
	// the full manifest, so it is identical on every machine regardless
	// of local cache state. NShards <= 1 means all cells.
	Shard, NShards int
	// Cache persists per-cell results; nil disables persistence.
	Cache *Cache
	// Resume reads existing cache entries before computing. With
	// Resume false (and Cache set) every owned cell recomputes and
	// overwrites its entry — a forced refresh.
	Resume bool
	// Progress receives human-readable progress/ETA lines (stderr in
	// the CLIs); nil is silent. Progress output never carries results.
	Progress io.Writer
	// Summary, when non-nil, accumulates per-batch counts.
	Summary *Summary
}

// Run executes a cell manifest and returns the results in manifest
// order plus a parallel availability mask. have[i] is false only when
// cell i belongs to another shard and was not found in the cache; the
// caller then skips its merge step (Table.Incomplete) until the other
// shards have landed their cells in the shared cache. label names the
// batch in progress lines and the summary.
func (e *Exec) Run(label string, cells []Cell) ([]Result, []bool, error) {
	results := make([]Result, len(cells))
	have := make([]bool, len(cells))
	batch := Batch{Label: label, Cells: len(cells)}

	var todo []int
	for i := range cells {
		if e.Cache != nil && e.Resume {
			res, ok, err := e.Cache.Load(cells[i].Key)
			if err != nil {
				return nil, nil, fmt.Errorf("runner: %s: %w", label, err)
			}
			if ok {
				results[i], have[i] = res, true
				batch.Cached++
				continue
			}
		}
		if e.NShards > 1 && i%e.NShards != e.Shard {
			batch.Skipped++
			continue
		}
		todo = append(todo, i)
	}
	batch.Computed = len(todo)

	if e.Progress != nil {
		fmt.Fprintf(e.Progress, "%s: %d cells (%d cached, %d other-shard), computing %d\n",
			label, batch.Cells, batch.Cached, batch.Skipped, len(todo))
	}

	// Errors are kept per cell, so the one reported is the first in
	// manifest order whatever the workers' schedule.
	errs := make([]error, len(todo))
	storeErrs := make([]error, len(todo))
	start := wallclock.Now()
	var lastTick atomic.Int64
	sim.ForEachProgress(len(todo), e.Workers, func(j int) {
		i := todo[j]
		res, err := cells[i].Run()
		if err != nil {
			errs[j] = err
			return
		}
		results[i], have[i] = res, true
		if e.Cache != nil {
			// Store at completion time, not at batch end: a killed run
			// keeps everything it finished, which is what makes sweeps
			// resumable.
			storeErrs[j] = e.Cache.Store(cells[i].Key, res)
		}
	}, e.ticker(label, len(todo), start, &lastTick))
	for j, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("runner: %s cell %s: %w", label, cells[todo[j]].Key.String(), err)
		}
	}
	for _, err := range storeErrs {
		if err != nil {
			return nil, nil, err
		}
	}
	if e.Progress != nil && len(todo) > 0 {
		fmt.Fprintf(e.Progress, "%s: computed %d cells in %s\n", label, len(todo), wallclock.Since(start).Round(time.Millisecond))
	}
	if e.Summary != nil {
		e.Summary.add(batch)
	}
	return results, have, nil
}

// ticker returns the ForEachProgress completion hook: a throttled
// progress/ETA line, at most one per 2 seconds. Nil when progress is
// off, so the silent path pays nothing.
func (e *Exec) ticker(label string, total int, start time.Time, lastTick *atomic.Int64) func(int) {
	if e.Progress == nil || total == 0 {
		return nil
	}
	return func(done int) {
		now := wallclock.Now().UnixMilli()
		last := lastTick.Load()
		if now-last < 2000 || done == total || !lastTick.CompareAndSwap(last, now) {
			return
		}
		elapsed := wallclock.Since(start)
		eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done)).Round(time.Second)
		fmt.Fprintf(e.Progress, "%s: %d/%d cells, ETA %s\n", label, done, total, eta)
	}
}

// Missing counts the unavailable cells of an availability mask.
func Missing(have []bool) int {
	n := 0
	for _, h := range have {
		if !h {
			n++
		}
	}
	return n
}
