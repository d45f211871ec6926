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
// check catches the second kind of drift.
func (n *Network) CheckLiveWindows() error {
	for _, w := range n.worms {
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
	return nil
}

// SetDomainsForTest overrides the contiguous node partition installed by
// SetParallelism(p) with an arbitrary node-to-domain map, so property
// tests can check that results are independent of the partition, not
// just of the domain count. dom must have one entry per node, each in
// [0, p); the fabric must be idle.
func (n *Network) SetDomainsForTest(dom []int32) {
	if len(n.worms) != 0 {
		panic("wormhole: SetDomainsForTest with active worms")
	}
	if n.par <= 1 {
		panic("wormhole: SetDomainsForTest without SetParallelism")
	}
	if len(dom) != n.topo.NumNodes() {
		panic("wormhole: SetDomainsForTest with wrong map length")
	}
	for _, d := range dom {
		if d < 0 || int(d) >= n.par {
			panic("wormhole: SetDomainsForTest domain out of range")
		}
	}
	copy(n.domOf, dom)
}

// DeadlockWaitersBuf exposes the cached DeadlockReport histogram so the
// reuse regression test can assert two successive reports share one
// backing array.
func (n *Network) DeadlockWaitersBuf() []int32 { return n.dlWaiters }
