package wormhole

import "fmt"

// ForceOwner fabricates (or, with nil, clears) channel ownership so tests
// can exercise the Quiesced leaked-channel error path, which is
// unreachable through the public API of a correct kernel. The ghost worm
// is given a slot of its own so the slot-indexed owner table stays
// coherent, and the owned-channel count follows the table.
func (n *Network) ForceOwner(c ChannelID, w *Worm) {
	was := n.owner[c] >= 0
	if w == nil {
		if was {
			n.freeSlot(n.owner[c])
			n.owned--
		}
		n.owner[c] = -1
		return
	}
	w.slot = n.takeSlot(w)
	n.owner[c] = w.slot
	if !was {
		n.owned++
	}
}

// SetStepHook installs (or, with nil, removes) f to run at the end of
// every stepped cycle, after the cycle's arrival callbacks, on either
// kernel. StepUntil may step many cycles per call; the hook lets a test
// count them and check invariants after each, not only at its returns.
// Skipped cycles do not run it.
func (n *Network) SetStepHook(f func()) { n.onStep = f }

// ForceOwnedCount overwrites the live owned-channel count, so tests can
// exercise Quiesced's count-disagrees-with-table error path.
func (n *Network) ForceOwnedCount(k int) { n.owned = k }

// CheckLiveWindows verifies the live-window invariants for every worm in
// flight: each channel in path[:tail] has passed all of the worm's flits
// and is no longer owned by it, and each channel in path[tail:] is owned
// by it. It also checks the owned-channel count against a scan of the
// owner table. A tail that runs ahead of the first owned channel would
// skip live flits; one that lags would only cost time, so only this
// check catches the second kind of drift. For parked worms it checks
// the closed form (see checkParked) and recounts the sums Stats credits
// parked flit-hops from. On a faulted fabric it checks that no worm has
// acquired a dead channel: the ungated loop relies on that under a
// model that reports OnlyDead. It also recounts the frozen worms and
// checks that the flit-hop count the last-move cycle is kept against is
// Stats' (it is called between cycles, when they must agree).
func (n *Network) CheckLiveWindows() error {
	var rate, sum int64
	frozen := 0
	for _, w := range n.worms {
		if w.waitState == waitUnreachable {
			frozen++
		}
		if n.faults != nil {
			for i, c := range w.path {
				if n.faults.Dead(c) {
					return fmt.Errorf("worm %d: path[%d] is dead channel %d", w.ID, i, c)
				}
			}
		}
		if n.asleep[w.slot] == parked {
			if err := n.checkParked(w); err != nil {
				return fmt.Errorf("worm %d (parked, routed %v) at cycle %d: %v", w.ID, w.routed, n.now, err)
			}
			r := w.liveStages()
			rate += r
			sum += r * w.parkAt
		}
		if w.tail < 0 || w.tail > len(w.path) {
			return fmt.Errorf("worm %d: tail %d outside path of %d channels", w.ID, w.tail, len(w.path))
		}
		for i, c := range w.path[:w.tail] {
			if w.passed[i] != w.flits {
				return fmt.Errorf("worm %d: released channel %d (path[%d], tail %d) has passed %d of %d flits",
					w.ID, c, i, w.tail, w.passed[i], w.flits)
			}
			if n.owner[c] == w.slot {
				return fmt.Errorf("worm %d: channel %d (path[%d]) before tail %d is still owned", w.ID, c, i, w.tail)
			}
		}
		for i, c := range w.path[w.tail:] {
			if n.owner[c] != w.slot {
				return fmt.Errorf("worm %d: channel %d (path[%d]) at or after tail %d is not owned by it",
					w.ID, c, w.tail+i, w.tail)
			}
		}
	}
	owned := 0
	for _, s := range n.owner {
		if s >= 0 {
			owned++
		}
	}
	if owned != n.owned {
		return fmt.Errorf("owned-channel count %d, owner table holds %d", n.owned, owned)
	}
	if rate != n.parkRate || sum != n.parkSum {
		return fmt.Errorf("parked stage sums %d/%d, recount %d/%d", n.parkRate, n.parkSum, rate, sum)
	}
	if frozen != n.frozen {
		return fmt.Errorf("frozen-worm count %d, recount %d", n.frozen, frozen)
	}
	if h := n.Stats().FlitHops; h != n.hops {
		return fmt.Errorf("last-move flit-hop count %d, Stats %d", n.hops, h)
	}
	return nil
}

// FinishedStages counts, over the worms in flight, the stages that have
// finished: each released channel, and injection once every flit is in.
// Each phase-A event of a parked worm raises it by one, and the worms in
// flight do not change inside a clock jump, so a StepUntil that ends in
// a jump settled events inside it exactly when the count moved since its
// last stepped cycle.
func (n *Network) FinishedStages() int64 {
	k := int64(0)
	for _, w := range n.worms {
		k += int64(w.tail)
		if w.injected == w.flits {
			k++
		}
	}
	return k
}

// Parked reports whether the in-flight worm w is parked, streaming in
// closed form.
func (n *Network) Parked(w *Worm) bool { return n.asleep[w.slot] == parked }

// checkParked verifies a parked worm's closed form at the current cycle.
// Its counters, each unfinished one advanced by vclock, must be the
// counters of a worm the closed form describes: no unfinished stage has
// reached flits (its event would have fired), its next event is ahead,
// and every channel whose exit still moves holds 1 to BufFlits flits.
// A crossing worm may park only where its frontier cannot fill before
// the header's next hop (BufFlits > RouterDelay); its header must route
// only in a later cycle, and the frontier must hold at most one flit per
// cycle since the header entered it (none in the cycle of a hop, before
// it enters).
func (n *Network) checkParked(w *Worm) error {
	if w.due <= n.now {
		return fmt.Errorf("due cycle %d not ahead", w.due)
	}
	if !w.routed && int64(n.cfg.BufFlits) <= n.cfg.RouterDelay {
		return fmt.Errorf("crossing worm parked with BufFlits %d <= RouterDelay %d", n.cfg.BufFlits, n.cfg.RouterDelay)
	}
	v := n.vclock(w)
	last := len(w.path) - 1
	count := func(x int) int {
		if x == w.flits {
			return x
		}
		if x+int(v) >= w.flits {
			return -1
		}
		return x + int(v)
	}
	up := count(w.injected)
	if up < 0 {
		return fmt.Errorf("injection at %d+%d of %d flits has not finished", w.injected, v, w.flits)
	}
	buf := n.cfg.BufFlits
	for i := w.tail; i <= last; i++ {
		cur := w.passed[i]
		if w.routed || i < last {
			cur = count(cur)
		}
		if cur < 0 {
			return fmt.Errorf("path[%d] at %d+%d of %d flits has not been released", i, w.passed[i], v, w.flits)
		}
		occ := up - cur
		switch {
		case w.routed || i < last:
			if occ < 1 || occ > buf {
				return fmt.Errorf("%d flits in path[%d]", occ, i)
			}
		default:
			if cur != 0 {
				return fmt.Errorf("the frontier path[%d] has passed %d flits", i, cur)
			}
			if n.now >= w.headerReadyAt {
				return fmt.Errorf("header routes at %d, now past", w.headerReadyAt)
			}
			phase := n.now - (w.headerReadyAt - n.cfg.RouterDelay)
			most := max(phase+1, 0)
			if int64(occ) > most || phase >= 0 && occ < 1 {
				return fmt.Errorf("%d flits in the frontier path[%d], %d cycles after the header entered", occ, i, phase)
			}
		}
		up = cur
	}
	return nil
}

// CrossingParked reports whether the in-flight worm w is parked while its
// header is still crossing the fabric.
func (n *Network) CrossingParked(w *Worm) bool { return n.Parked(w) && !w.routed }

// HeaderBlocked reports whether w's header found every routing candidate
// owned by another worm at its last routing attempt.
func (w *Worm) HeaderBlocked() bool { return w.waitState == waitBlocked }

// HeaderFrozen reports whether w's header found every routing candidate
// dead: w is frozen unreachable.
func (w *Worm) HeaderFrozen() bool { return w.waitState == waitUnreachable }
