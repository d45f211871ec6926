package plan

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/sim"
)

// expandRepair recursively expands the full repair tree rooted at self
// over the live positions, bumping covered[p] for every position a
// subtree claims responsibility for. It also enforces the local
// invariants on every level: Live ascending, To an end of Live.
func expandRepair(t *testing.T, tab core.SplitTable, live []int, self int, covered map[int]int) {
	t.Helper()
	covered[self]++
	sends, err := RepairSends(nil, tab, live, self)
	if err != nil {
		t.Fatalf("RepairSends(%v, self=%d): %v", live, self, err)
	}
	for _, s := range sends {
		if len(s.Live) == 0 || (s.To != s.Live[0] && s.To != s.Live[len(s.Live)-1]) {
			t.Fatalf("receiver %d is not an end of its part %v", s.To, s.Live)
		}
		for i := 1; i < len(s.Live); i++ {
			if s.Live[i-1] >= s.Live[i] {
				t.Fatalf("part %v not strictly ascending", s.Live)
			}
		}
		expandRepair(t, tab, s.Live, s.To, covered)
	}
}

// checkRepairCoverage: the repair tree over an arbitrary survivor subset
// must deliver exactly the survivors, each exactly once.
func checkRepairCoverage(t *testing.T, tab core.SplitTable, live []int, self int) {
	t.Helper()
	covered := make(map[int]int, len(live))
	expandRepair(t, tab, live, self, covered)
	if len(covered) != len(live) {
		t.Fatalf("repair tree covered %d positions, want the %d survivors", len(covered), len(live))
	}
	for _, p := range live {
		if covered[p] != 1 {
			t.Fatalf("survivor %d covered %d times (live=%v self=%d)", p, covered[p], live, self)
		}
	}
}

// survivorsFromMask strikes the positions whose mask bit is set from
// [0,k), always keeping keep alive. It returns the ascending survivor
// list.
func survivorsFromMask(k int, mask uint64, keep int) []int {
	var live []int
	for p := 0; p < k; p++ {
		if p == keep || mask&(1<<(uint(p)%64)) == 0 {
			live = append(live, p)
		}
	}
	return live
}

// FuzzRepairPlanner: for arbitrary valid split tables, random chains and
// random dead subsets, the repaired schedule always covers exactly the
// survivors, each once, with every handoff going to a part end. This is
// the planner half of the chaos invariant — whatever the fault plan
// kills, replanning over the survivors never drops or duplicates one.
func FuzzRepairPlanner(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(0), uint64(0))
	f.Add(uint64(2), uint8(32), uint8(7), uint64(0xdeadbeef))
	f.Add(uint64(1997), uint8(60), uint8(59), uint64(0xaaaaaaaaaaaaaaaa))
	f.Add(uint64(3), uint8(2), uint8(1), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64, kr, sr uint8, mask uint64) {
		k := int(kr%60) + 1
		self := int(sr) % k
		live := survivorsFromMask(k, mask, self)
		tab := newRandomTable(sim.NewRNG(seed), k)
		checkRepairCoverage(t, tab, live, self)
	})
}

// TestRepairPlannerQuick runs the fuzz property through testing/quick so
// every ordinary `go test` run explores the space, not just the fuzz
// seed corpus.
func TestRepairPlannerQuick(t *testing.T) {
	f := func(seed uint64, kr, sr uint8, mask uint64) bool {
		k := int(kr%60) + 1
		self := int(sr) % k
		tab := newRandomTable(sim.NewRNG(seed), k)
		checkRepairCoverage(t, tab, survivorsFromMask(k, mask, self), self)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRepairSendsContiguousMatchesSends: with no dead members the repair
// planner must produce exactly the schedule of Sends — healthy runs are
// bit-identical whichever entry point planned them.
func TestRepairSendsContiguousMatchesSends(t *testing.T) {
	f := func(seed uint64, kr, sr uint8) bool {
		k := int(kr%60) + 1
		self := int(sr) % k
		tab := newRandomTable(sim.NewRNG(seed), k)
		live := chain.Segment{L: 0, R: k - 1}.Positions()

		repaired, err := RepairSends(nil, tab, live, self)
		if err != nil {
			return false
		}
		direct, err := Sends(nil, tab, chain.Segment{L: 0, R: k - 1}, self)
		if err != nil {
			return false
		}
		if len(repaired) != len(direct) {
			return false
		}
		for i, s := range direct {
			r := repaired[i]
			if r.To != s.To || len(r.Live) != s.Seg.Len() || r.Live[0] != s.Seg.L || r.Live[len(r.Live)-1] != s.Seg.R {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRepairSendsOffsetPositions: survivor positions need not start at
// zero or be dense — the planner maps through arbitrary gaps.
func TestRepairSendsOffsetPositions(t *testing.T) {
	live := []int{3, 7, 8, 20, 21, 22, 40}
	tab := core.BinomialTable{Max: 16}
	checkRepairCoverage(t, tab, live, 20)
}

// TestRepairSendsValidation: malformed survivor sets are planner-caller
// bugs and must be rejected, not mis-planned.
func TestRepairSendsValidation(t *testing.T) {
	tab := core.BinomialTable{Max: 4}
	cases := []struct {
		name string
		live []int
		self int
	}{
		{"empty", nil, 0},
		{"self missing", []int{1, 2}, 0},
		{"not ascending", []int{2, 1, 3}, 1},
		{"duplicate", []int{1, 1, 2}, 1},
		{"exceeds K", []int{0, 1, 2, 3, 4}, 0},
	}
	for _, c := range cases {
		if _, err := RepairSends(nil, tab, c.live, c.self); err == nil {
			t.Errorf("%s: RepairSends(%v, %d) accepted", c.name, c.live, c.self)
		}
	}
}

// TestRepairSendsAppendsWithoutCopies: RepairSends appends to dst and
// hands out capped subslices of live itself, so a caller that reuses its
// buffer plans without allocating.
func TestRepairSendsAppendsWithoutCopies(t *testing.T) {
	const k = 40
	tab := core.NewOptTable(k, 3, 10)
	live := []int{1, 2, 4, 5, 6, 9, 10, 11, 15, 17, 20, 21, 22, 30}
	self := 9
	prefix := []RepairSend{{To: -1}}
	sends, err := RepairSends(prefix, tab, live, self)
	if err != nil {
		t.Fatal(err)
	}
	if len(sends) < 3 || sends[0].To != -1 {
		t.Fatalf("dst prefix lost or plan too small: %+v", sends)
	}
	for _, s := range sends[1:] {
		i := sort.SearchInts(live, s.Live[0])
		if &s.Live[0] != &live[i] {
			t.Fatalf("part %v is a copy, not a subslice of live", s.Live)
		}
		if cap(s.Live) != len(s.Live) {
			t.Fatalf("part %v has capacity %d: an append would overwrite its neighbour", s.Live, cap(s.Live))
		}
	}
	buf := sends[:0]
	if n := testing.AllocsPerRun(100, func() {
		if buf, err = RepairSends(buf[:0], tab, live, self); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("RepairSends into a warm buffer made %.1f allocs, want 0", n)
	}
}
