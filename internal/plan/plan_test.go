package plan

import (
	"testing"
	"testing/quick"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/model"
)

func fullSeg(k int) chain.Segment { return chain.Segment{L: 0, R: k - 1} }

func idChain(k int) chain.Chain {
	c := make(chain.Chain, k)
	for i := range c {
		c[i] = i
	}
	return c
}

// TestSendsCoverSegmentOnce: every chain position except self is handed to
// exactly one receiver, receivers are segment ends, and handed segments
// partition the rest of the segment.
func TestSendsCoverSegmentOnce(t *testing.T) {
	tabs := map[string]core.SplitTable{
		"opt(20,55)": core.NewOptTable(64, 20, 55),
		"binomial":   core.BinomialTable{Max: 64},
		"sequential": core.SequentialTable{Max: 64},
	}
	for name, tab := range tabs {
		for k := 1; k <= 33; k++ {
			for self := 0; self < k; self++ {
				sends, err := Sends(nil, tab, fullSeg(k), self)
				if err != nil {
					t.Fatalf("%s k=%d self=%d: %v", name, k, self, err)
				}
				covered := make([]int, k)
				covered[self]++
				for _, s := range sends {
					if s.To != s.Seg.L && s.To != s.Seg.R {
						t.Fatalf("%s k=%d self=%d: receiver %d is not an end of %v", name, k, self, s.To, s.Seg)
					}
					for i := s.Seg.L; i <= s.Seg.R; i++ {
						covered[i]++
					}
				}
				for i, c := range covered {
					if c != 1 {
						t.Fatalf("%s k=%d self=%d: position %d covered %d times", name, k, self, i, c)
					}
				}
			}
		}
	}
}

// TestSendsSegmentsDisjointFromKeeper: no handed segment ever contains the
// sender, and consecutive handed segments are disjoint.
func TestSendsSegmentsDisjoint(t *testing.T) {
	tab := core.NewOptTable(64, 20, 55)
	for k := 2; k <= 40; k++ {
		for self := 0; self < k; self += 3 {
			sends, err := Sends(nil, tab, fullSeg(k), self)
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range sends {
				if a.Seg.Contains(self) {
					t.Fatalf("k=%d self=%d: handed segment %v contains the sender", k, self, a.Seg)
				}
				for _, b := range sends[i+1:] {
					if a.Seg.Overlaps(b.Seg) {
						t.Fatalf("k=%d self=%d: handed segments %v and %v overlap", k, self, a.Seg, b.Seg)
					}
				}
			}
		}
	}
}

// TestTreePaperExample: the OPT tree over 8 nodes with (20, 55) evaluates
// to the paper's 130, from every source position.
func TestTreePaperExample(t *testing.T) {
	tab := core.NewOptTable(8, 20, 55)
	for self := 0; self < 8; self++ {
		tr, err := Tree(tab, fullSeg(8), self)
		if err != nil {
			t.Fatalf("self=%d: %v", self, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("self=%d: %v", self, err)
		}
		if got := tr.Eval(20, 55); got != 130 {
			t.Fatalf("self=%d: OPT-mesh tree latency %d, paper says 130\n%s", self, got, tr)
		}
	}
}

// TestTreeLatencyMatchesTable: for arbitrary (h <= e) parameters and any
// source position, the planned tree achieves exactly the DP's optimal
// latency — the planner loses nothing to source placement.
func TestTreeLatencyMatchesTable(t *testing.T) {
	f := func(hr, er uint16, kr, sr uint8) bool {
		h := model.Time(hr % 200)
		e := h + model.Time(er%200) + 1
		k := int(kr%50) + 1
		self := int(sr) % k
		tab := core.NewOptTable(k, h, e)
		tr, err := Tree(tab, fullSeg(k), self)
		if err != nil {
			return false
		}
		return tr.Eval(h, e) == tab.T(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBinomialTreeMatchesRecurrence: planner + binomial table equals the
// recurrence latency for any source position.
func TestBinomialTreeMatchesRecurrence(t *testing.T) {
	tab := core.BinomialTable{Max: 64}
	for k := 1; k <= 64; k += 7 {
		want := core.Latency(tab, k, 20, 55)
		for self := 0; self < k; self++ {
			tr, err := Tree(tab, fullSeg(k), self)
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.Eval(20, 55); got != want {
				t.Fatalf("k=%d self=%d: binomial tree latency %d, want %d", k, self, got, want)
			}
		}
	}
}

// TestChainTableRequiresLeadingSource: ChainTable has J(i) = 1 < ceil(i/2)
// for i > 2, so a mid-segment source must be rejected with
// IncompatibleError, while a leading source plans fine.
func TestChainTableRequiresLeadingSource(t *testing.T) {
	tab := core.ChainTable{Max: 8}
	if _, err := Sends(nil, tab, fullSeg(8), 0); err == nil {
		// Source at position 0: first split keeps [0,0]... J=1 keeps the
		// low end, which contains position 0. This must succeed.
	} else {
		t.Fatalf("leading source rejected: %v", err)
	}
	_, err := Sends(nil, tab, fullSeg(8), 4)
	if err == nil {
		t.Fatal("mid-segment source accepted by chain table")
	}
	if _, ok := err.(*IncompatibleError); !ok {
		t.Fatalf("error type = %T, want *IncompatibleError", err)
	}
}

// TestSendsArgumentErrors covers self outside the segment and oversized
// segments.
func TestSendsArgumentErrors(t *testing.T) {
	tab := core.NewOptTable(4, 20, 55)
	if _, err := Sends(nil, tab, chain.Segment{L: 1, R: 3}, 0); err == nil {
		t.Error("self outside segment accepted")
	}
	if _, err := Sends(nil, tab, fullSeg(5), 0); err == nil {
		t.Error("segment larger than table accepted")
	}
}

// TestSendsSingleton: a one-node segment yields no sends.
func TestSendsSingleton(t *testing.T) {
	tab := core.NewOptTable(4, 20, 55)
	sends, err := Sends(nil, tab, chain.Segment{L: 2, R: 2}, 2)
	if err != nil || len(sends) != 0 {
		t.Fatalf("singleton: sends=%v err=%v", sends, err)
	}
}

// TestBuildSchedulePaperExample: the full static schedule of the Figure 1
// example has 7 entries (one per destination) and latency 130.
func TestBuildSchedulePaperExample(t *testing.T) {
	tab := core.NewOptTable(8, 20, 55)
	s, err := BuildSchedule(tab, idChain(8), 0, 20, 55)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Entries) != 7 {
		t.Fatalf("schedule has %d entries, want 7", len(s.Entries))
	}
	if s.Latency() != 130 {
		t.Fatalf("schedule latency = %d, want 130", s.Latency())
	}
	for i := 1; i < len(s.Entries); i++ {
		if s.Entries[i].Issue < s.Entries[i-1].Issue {
			t.Fatal("entries not sorted by issue time")
		}
	}
	for _, e := range s.Entries {
		if e.Arrive != e.Issue+55 {
			t.Fatalf("entry %+v: arrive != issue + t_end", e)
		}
	}
}

// TestBuildScheduleReceiversUnique: every non-root chain position receives
// exactly once; the root never receives.
func TestBuildScheduleReceiversUnique(t *testing.T) {
	tab := core.NewOptTable(32, 20, 55)
	for _, root := range []int{0, 13, 31} {
		s, err := BuildSchedule(tab, idChain(32), root, 20, 55)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]int)
		for _, e := range s.Entries {
			seen[e.To]++
		}
		if seen[root] != 0 {
			t.Fatalf("root %d received %d times", root, seen[root])
		}
		for i := 0; i < 32; i++ {
			if i != root && seen[i] != 1 {
				t.Fatalf("position %d received %d times", i, seen[i])
			}
		}
	}
}

// TestBuildScheduleValidatesChain: duplicate addresses are rejected.
func TestBuildScheduleValidatesChain(t *testing.T) {
	tab := core.NewOptTable(4, 20, 55)
	if _, err := BuildSchedule(tab, chain.Chain{1, 1, 2}, 0, 20, 55); err == nil {
		t.Fatal("duplicate chain accepted")
	}
}

// TestSenderHoldSpacing: a sender's consecutive entries are spaced exactly
// t_hold apart in the analytic schedule.
func TestSenderHoldSpacing(t *testing.T) {
	tab := core.NewOptTable(32, 20, 55)
	s, err := BuildSchedule(tab, idChain(32), 0, 20, 55)
	if err != nil {
		t.Fatal(err)
	}
	lastIssue := make(map[int]int64)
	first := make(map[int]bool)
	for _, e := range s.Entries {
		if first[e.From] {
			if e.Issue-lastIssue[e.From] != 20 {
				t.Fatalf("sender %d: gap %d, want t_hold=20", e.From, e.Issue-lastIssue[e.From])
			}
		}
		lastIssue[e.From] = e.Issue
		first[e.From] = true
	}
}
