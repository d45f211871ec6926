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
// the closed form's precondition on the counters that still hold their
// parking-cycle values — each live channel then held 1 to BufFlits
// flits (a finished upstream stage reads flits) — and that each due
// cycle is still ahead, and it recounts the sums Stats credits parked
// flit-hops from. On a faulted fabric it checks that no worm has
// acquired a dead channel: the ungated loop relies on that under a
// model that reports OnlyDead.
func (n *Network) CheckLiveWindows() error {
	var rate, sum int64
	for _, w := range n.worms {
		if n.faults != nil {
			for i, c := range w.path {
				if n.faults.Dead(c) {
					return fmt.Errorf("worm %d: path[%d] is dead channel %d", w.ID, i, c)
				}
			}
		}
		if n.asleep[w.slot] == parked {
			if w.due <= n.now {
				return fmt.Errorf("worm %d: parked with due cycle %d at cycle %d", w.ID, w.due, n.now)
			}
			for i := w.tail; i < len(w.path); i++ {
				if o := w.occ(i); o < 1 || (w.entered(i) < w.flits && o > n.cfg.BufFlits) {
					return fmt.Errorf("worm %d: parked with %d flits in path[%d]", w.ID, o, i)
				}
			}
			r := w.liveStages()
			rate += r
			sum += r * w.parkedAt()
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
	return nil
}

// Parked reports whether the in-flight worm w is parked, streaming in
// closed form.
func (n *Network) Parked(w *Worm) bool { return n.asleep[w.slot] == parked }

// DeadlockWaitersBuf exposes the cached DeadlockReport histogram so the
// reuse regression test can assert two successive reports share one
// backing array.
func (n *Network) DeadlockWaitersBuf() []int32 { return n.dlWaiters }
