// Package chain provides the ordered-chain abstraction shared by every
// multicast planner in this repository.
//
// The architecture-dependent algorithms of the paper (OPT-mesh, OPT-min,
// U-mesh, U-min) all operate on a chain: the source and destination
// addresses sorted by an architecture-specific total order (the
// dimension order <_d for meshes, the lexicographic order for BMINs).
// Contention-freedom then follows from the fact that concurrent messages
// always travel within disjoint contiguous chain segments.
package chain

import (
	"fmt"
	"slices"
	"sort"
)

// Chain is a sequence of distinct node addresses in planning order.
// Element 0 is the chain head (the lowest node under the ordering).
type Chain []int

// New returns the given addresses sorted by less. The input slice is not
// modified. less must be a strict weak ordering on addresses.
func New(addrs []int, less func(a, b int) bool) Chain {
	c := make(Chain, len(addrs))
	copy(c, addrs)
	sort.Slice(c, func(i, j int) bool { return less(c[i], c[j]) })
	return c
}

// Unordered returns the addresses as a chain in their given order, for the
// architecture-independent OPT-tree which knows nothing about addresses.
func Unordered(addrs []int) Chain {
	c := make(Chain, len(addrs))
	copy(c, addrs)
	return c
}

// Validate reports an error if the chain is empty or contains duplicates.
// It checks a sorted copy, so it makes one allocation whatever the
// chain's length, and names the first repeat only once it has found one.
func (c Chain) Validate() error {
	if len(c) == 0 {
		return fmt.Errorf("chain: empty chain")
	}
	s := slices.Clone(c)
	slices.Sort(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return c.repeat()
		}
	}
	return nil
}

// repeat reports the chain's first repeated address, scanning in order.
func (c Chain) repeat() error {
	seen := make(map[int]int, len(c))
	for i, a := range c {
		if prev, dup := seen[a]; dup {
			return fmt.Errorf("chain: address %d appears at positions %d and %d", a, prev, i)
		}
		seen[a] = i
	}
	return nil
}

// Index returns the position of addr in the chain, or false if absent.
func (c Chain) Index(addr int) (int, bool) {
	for i, a := range c {
		if a == addr {
			return i, true
		}
	}
	return 0, false
}

// Sorted reports whether the chain is sorted under less.
func (c Chain) Sorted(less func(a, b int) bool) bool {
	return sort.SliceIsSorted(c, func(i, j int) bool { return less(c[i], c[j]) })
}

// Select returns the sub-chain of the addresses at the given positions,
// in the order given. Passing positions in ascending chain order yields a
// chain sorted under the same architecture order as the original — the
// property the repair planner relies on when it re-plans over survivors
// (see plan.RepairSends). Select panics on an out-of-range position: the
// caller computed the positions, so a bad one is a planner bug.
func (c Chain) Select(pos []int) Chain {
	sub := make(Chain, len(pos))
	for i, p := range pos {
		if p < 0 || p >= len(c) {
			panic(fmt.Sprintf("chain: Select position %d outside chain of %d", p, len(c)))
		}
		sub[i] = c[p]
	}
	return sub
}

// Segment is a contiguous, inclusive index range [L, R] of a chain, the
// unit of responsibility the planners subdivide.
type Segment struct{ L, R int }

// Len returns the number of chain positions covered by the segment.
func (s Segment) Len() int { return s.R - s.L + 1 }

// Contains reports whether chain index i lies inside the segment.
func (s Segment) Contains(i int) bool { return s.L <= i && i <= s.R }

// Overlaps reports whether the two segments share any chain position.
func (s Segment) Overlaps(o Segment) bool { return s.L <= o.R && o.L <= s.R }

// Valid reports whether the segment is non-empty and within a chain of n
// elements.
func (s Segment) Valid(n int) bool { return 0 <= s.L && s.L <= s.R && s.R < n }

func (s Segment) String() string { return fmt.Sprintf("[%d,%d]", s.L, s.R) }

// Positions expands the segment to its list of chain positions in
// ascending order — the contiguous special case of the position sets the
// repair planner works over once members start dying.
func (s Segment) Positions() []int {
	pos := make([]int, s.Len())
	for i := range pos {
		pos[i] = s.L + i
	}
	return pos
}
