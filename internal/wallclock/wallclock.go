// Package wallclock is the repo's single audited door to the host's
// wall clock.
//
// The detclock analyzer bans time.Now/time.Since from every package
// that produces or consumes experiment numbers: published results must
// be pure functions of seeds and the simulated cycle clock. But three
// spots legitimately need the wall clock — the experiment engine's
// progress/ETA ticker, the CLI summaries' wall_ms field and the cell
// cache's log names, which sort by creation time — and all three are
// run metadata: they write to stderr, a summary or a file name, never
// into a table, a golden file, or a cache payload. Routing those reads
// through this package keeps the exception enumerable: a grep for
// wallclock. lists every wall-clock consumer in the repo, and any new
// time.Now elsewhere is a lint failure, not a review judgment call.
//
// Do not add functionality here (no formatting, no timers): the
// narrower the door, the easier the audit.
package wallclock

import "time"

// Now returns the current wall-clock time. Display and run-metadata
// use only — never feed it into a result.
func Now() time.Time { return time.Now() }

// Since returns the wall time elapsed since t. Display and
// run-metadata use only.
func Since(t time.Time) time.Duration { return time.Since(t) }
