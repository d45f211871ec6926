package mcastsim

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/wormhole"
)

// Monitor watches a Drive loop: Idled runs after every idle
// fast-forward, Check after every fabric step. A Check error ends the
// drive and is returned as is.
type Monitor interface {
	Idled()
	Check() error
}

// Drive is the one step-until-next-event loop every delivery layer
// shares. It fires q's due events at their exact cycles, steps net
// (letting the kernel fast-forward stalls) but never past the next
// event, and jumps an empty fabric straight to the next event. It
// returns once both the queue and the fabric are idle, when mon.Check
// fails, or when the clock passes deadline. Errors carry no package
// prefix; callers add their own.
func Drive(net *wormhole.Network, q *sim.EventQueue, deadline int64, mon Monitor) error {
	start := net.Now()
	for q.Len() > 0 || net.Active() > 0 {
		if net.Active() == 0 {
			if next := q.NextTime(); next > net.Now() {
				net.AdvanceTo(next)
			}
			mon.Idled()
		}
		q.RunDue(net.Now())
		if net.Active() == 0 {
			continue
		}
		// AdvanceTo may have leapt past a tiny deadline already, so keep
		// the limit in the future; the check below still fires.
		limit := deadline + 1
		if limit <= net.Now() {
			limit = net.Now() + 1
		}
		if q.Len() > 0 && q.NextTime() < limit {
			limit = q.NextTime()
		}
		net.StepUntil(limit)
		if err := mon.Check(); err != nil {
			return err
		}
		if net.Now() > deadline {
			return fmt.Errorf("run not complete after %d cycles; %s", deadline-start, net.DeadlockReport(8))
		}
	}
	return nil
}

// defaultNoProgress is the watchdog window used when
// Config.NoProgressCycles is 0.
const defaultNoProgress = 4096

// Watchdog is the Monitor that aborts runs on a degraded or misrouted
// fabric that can no longer make progress, instead of spinning until
// the cycle deadline.
type Watchdog struct {
	net      *wormhole.Network
	window   int64 // <= 0: disabled
	lastHops int64
	lastMove int64
}

// NewWatchdog arms a watchdog over net using cfg's window settings
// (Config.NoProgressCycles semantics).
func NewWatchdog(net *wormhole.Network, cfg Config) *Watchdog {
	w := cfg.NoProgressCycles
	if w == 0 {
		w = defaultNoProgress
	}
	if min := 2*net.Config().RouterDelay + 64; w > 0 && w < min {
		w = min
	}
	return &Watchdog{net: net, window: w, lastHops: net.Stats().FlitHops, lastMove: net.Now()}
}

// Idled resets the movement clock after the driver fast-forwards an idle
// fabric (no worms in flight is not a stall).
func (wd *Watchdog) Idled() { wd.lastMove = wd.net.Now() }

// Check surfaces unreachable-destination errors recorded by the fault
// layer and detects fabric-wide no-progress freezes.
func (wd *Watchdog) Check() error {
	if err := wd.net.Err(); err != nil {
		return fmt.Errorf("%w; %s", err, wd.net.DeadlockReport(8))
	}
	if h := wd.net.Stats().FlitHops; h != wd.lastHops {
		wd.lastHops, wd.lastMove = h, wd.net.Now()
		return nil
	}
	if wd.window > 0 && wd.net.Active() > 0 && wd.net.Now()-wd.lastMove >= wd.window {
		return fmt.Errorf("no flit moved for %d cycles (deadlocked or partitioned fabric); %s",
			wd.net.Now()-wd.lastMove, wd.net.DeadlockReport(8))
	}
	return nil
}
