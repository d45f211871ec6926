package plan

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
)

// RepairSend is one transmission of a repaired multicast schedule: the
// responsible node transmits to the survivor at chain position To, which
// becomes responsible for the survivor positions Live (ascending; To is
// always an end of Live, mirroring Send.Seg).
type RepairSend struct {
	To   int
	Live []int
}

// RepairSends generalizes Sends to a non-contiguous survivor set: live
// holds the chain positions still needing delivery (strictly ascending,
// including the responsible node's own position self), as left after dead
// members were struck from the original segment. The survivors are
// compacted into a dense sub-chain — striking members from an
// architecture-ordered chain preserves the order, so the paper's
// contention-freedom argument applies to the sub-chain as-is — the split
// algorithm runs over that, and the results are mapped back to original
// chain positions.
//
// The sends are appended to dst. Each Live is a subslice of live itself,
// capped at its own end, so the plan copies nothing: the caller must not
// write to live while the sends are in use, and an append to one part
// reallocates instead of overwriting its neighbour.
//
// For a contiguous live set RepairSends degenerates to exactly Sends:
// healthy runs plan identical trees through either entry point.
func RepairSends(dst []RepairSend, tab core.SplitTable, live []int, self int) ([]RepairSend, error) {
	if len(live) == 0 {
		return nil, fmt.Errorf("plan: repair with no survivors")
	}
	if len(live) > tab.K() {
		return nil, fmt.Errorf("plan: %d survivors exceed split table K=%d", len(live), tab.K())
	}
	selfIdx := -1
	for i, p := range live {
		if i > 0 && live[i-1] >= p {
			return nil, fmt.Errorf("plan: survivor positions not strictly ascending at index %d (%d after %d)", i, p, live[i-1])
		}
		if p == self {
			selfIdx = i
		}
	}
	if selfIdx < 0 {
		return nil, fmt.Errorf("plan: responsible position %d not among survivors %v", self, live)
	}
	err := split(tab, chain.Segment{L: 0, R: len(live) - 1}, selfIdx, func(s Send) {
		dst = append(dst, RepairSend{To: live[s.To], Live: live[s.Seg.L : s.Seg.R+1 : s.Seg.R+1]})
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}
