package mcastsim

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/wormhole"
)

// Monitor watches a Drive loop: Idled runs after every idle
// fast-forward, Check after every StepUntil. A Check error ends the
// drive and is returned as is. StepUntil returns when the driver may
// have work (see wormhole.Network.StepUntil), not once per cycle, so a
// Check should cost O(1) while nothing is wrong.
type Monitor interface {
	Idled()
	Check() error
}

// Drive is the one step-until-next-event loop every delivery layer
// shares. It fires q's due events at their exact cycles, steps net
// (letting the kernel step on and fast-forward stalls until an arrival,
// a fault stall or a jump) but never past the next event, and jumps an
// empty fabric straight to the next event. It returns once both the
// queue and the fabric are idle, when mon.Check fails, or when the clock
// passes deadline. Errors carry no package prefix; callers add their
// own.
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
// the cycle deadline. Its Check is O(1): it compares the fabric's
// last-move cycle (wormhole.Network.LastMove) and its own idle mark with
// the clock, and trips once neither is within the window.
type Watchdog struct {
	net    *wormhole.Network
	window int64 // <= 0: disabled
	idle   int64 // when the watchdog was armed or last saw an idle fabric
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
	return &Watchdog{net: net, window: w, idle: net.Now()}
}

// Idled resets the movement clock after the driver fast-forwards an idle
// fabric (no worms in flight is not a stall).
func (wd *Watchdog) Idled() { wd.idle = wd.net.Now() }

// Check surfaces unreachable-destination errors recorded by the fault
// layer and detects fabric-wide no-progress freezes: no flit has moved
// for window cycles since the later of the fabric's last move and the
// watchdog's idle mark.
//
//lint:hotpath
func (wd *Watchdog) Check() error {
	if wd.net.Frozen() > 0 {
		return wd.unreachable()
	}
	if wd.window <= 0 || wd.net.Active() == 0 {
		return nil
	}
	if stalled := wd.net.Now() - max(wd.net.LastMove(), wd.idle); stalled >= wd.window {
		return wd.trip(stalled)
	}
	return nil
}

// unreachable reports the fabric's unreachable-destination error.
// Outlined from Check so the hot path carries no fmt call.
func (wd *Watchdog) unreachable() error {
	return fmt.Errorf("%w; %s", wd.net.Err(), wd.net.DeadlockReport(8))
}

// trip reports a fabric on which no flit has moved for stalled cycles.
func (wd *Watchdog) trip(stalled int64) error {
	return fmt.Errorf("no flit moved for %d cycles (deadlocked or partitioned fabric); %s",
		stalled, wd.net.DeadlockReport(8))
}
