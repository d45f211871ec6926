// Package plan turns split tables (package core) into concrete multicast
// send schedules over ordered chains (package chain). It is the
// generalized form of Algorithms 3.1 (OPT-mesh) and 4.1 (OPT-min): the two
// algorithms are textually identical and differ only in the chain ordering
// supplied by the topology, so a single implementation serves meshes,
// BMINs, and the unordered architecture-independent OPT-tree.
//
// Given a segment [l, r] of the chain for which the node at chain index
// self is responsible, the node repeatedly splits the segment into a part
// of size J(i) containing itself and a part of size i-J(i) that it hands
// off with a single send to that part's nearest end node, until only the
// node itself remains.
package plan

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
)

// Send is one transmission of a multicast schedule: the node responsible
// for a segment transmits to the node at chain index To, which becomes
// responsible for segment Seg (To is always an end of Seg).
type Send struct {
	To  int
	Seg chain.Segment
}

// IncompatibleError is returned when a split table asks for a part that
// cannot contain the responsible node. This happens only for split tables
// with J(i) < ceil(i/2) (e.g. ChainTable, or an OptTable computed with
// t_hold > t_end) combined with a mid-segment source; the paper's
// algorithms always satisfy J(i) >= ceil(i/2) because t_hold <= t_end.
type IncompatibleError struct {
	Seg  chain.Segment
	Self int
	J    int
}

func (e *IncompatibleError) Error() string {
	return fmt.Sprintf("plan: split J=%d of segment %v cannot keep node at index %d (need J >= ceil(len/2))",
		e.J, e.Seg, e.Self)
}

// Sends appends to dst the ordered transmissions the node at chain index
// self performs for segment seg, following Algorithm 3.1/4.1:
//
//	while l < r:
//	  i := r-l+1; j := J(i)
//	  if self < l+j:  send to x[l+j]  covering [l+j, r];  r = l+j-1
//	  else:           send to x[r-j]  covering [l, r-j];  l = r-j+1
//
// The first case keeps the source in the lower part; the send goes to the
// lowest node of the upper part. The second keeps the source in the upper
// part; the send goes to the highest node of the lower part. A caller
// that plans once per delivery passes its previous result, resliced to
// zero length, as dst and allocates nothing once it has grown.
func Sends(dst []Send, tab core.SplitTable, seg chain.Segment, self int) ([]Send, error) {
	if err := split(tab, seg, self, func(s Send) { dst = append(dst, s) }); err != nil {
		return nil, err
	}
	return dst, nil
}

// split runs the loop Sends documents over seg, handing each send to
// emit in order. It is the one statement of the split recursion; Sends
// and RepairSends differ only in what they record per send.
func split(tab core.SplitTable, seg chain.Segment, self int, emit func(Send)) error {
	if !seg.Contains(self) {
		return fmt.Errorf("plan: self index %d outside segment %v", self, seg)
	}
	if seg.Len() > tab.K() {
		return fmt.Errorf("plan: segment %v larger than split table K=%d", seg, tab.K())
	}
	l, r := seg.L, seg.R
	for l < r {
		i := r - l + 1
		j := tab.J(i)
		if j < 1 || j > i-1 {
			return fmt.Errorf("plan: split table returned J(%d)=%d outside [1,%d]", i, j, i-1)
		}
		if self < l+j {
			rec := l + j
			emit(Send{To: rec, Seg: chain.Segment{L: rec, R: r}})
			r = rec - 1
		} else {
			rec := r - j
			if self <= rec {
				return &IncompatibleError{Seg: chain.Segment{L: l, R: r}, Self: self, J: j}
			}
			emit(Send{To: rec, Seg: chain.Segment{L: l, R: rec}})
			l = rec + 1
		}
	}
	return nil
}

// Tree expands the full multicast tree rooted at chain index self for
// segment seg. Node identifiers in the returned tree are chain indices;
// use core.Tree.Relabel to map them to addresses. Children appear in send
// order.
func Tree(tab core.SplitTable, seg chain.Segment, self int) (*core.Tree, error) {
	sends, err := Sends(nil, tab, seg, self)
	if err != nil {
		return nil, err
	}
	t := &core.Tree{Node: self}
	for _, s := range sends {
		sub, err := Tree(tab, s.Seg, s.To)
		if err != nil {
			return nil, err
		}
		t.Children = append(t.Children, sub)
	}
	return t, nil
}

// Schedule is the complete static send list of a multicast: every
// transmission in the tree, annotated with the analytic issue and arrival
// times under (t_hold, t_end). It is what a trace viewer or a static
// verifier consumes; the dynamic runtime (package mcastsim) re-derives the
// same sends on the fly from the address lists carried in messages.
type Schedule struct {
	// Chain is the planning chain (addresses in order).
	Chain chain.Chain
	// Root is the chain index of the source.
	Root int
	// Entries are all transmissions in global issue-time order.
	Entries []Entry
}

// Entry is one transmission of a Schedule.
type Entry struct {
	From, To int           // chain indices
	Seg      chain.Segment // responsibility transferred to To
	Issue    int64         // analytic issue time (cycles)
	Arrive   int64         // analytic delivery time: Issue + t_end
}

// BuildSchedule computes the full static schedule for a multicast over the
// whole chain with the source at index root.
func BuildSchedule(tab core.SplitTable, c chain.Chain, root int, thold, tend int64) (*Schedule, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{Chain: c, Root: root}
	seg := chain.Segment{L: 0, R: len(c) - 1}
	if err := s.expand(tab, seg, root, 0, thold, tend); err != nil {
		return nil, err
	}
	sortEntries(s.Entries)
	return s, nil
}

func (s *Schedule) expand(tab core.SplitTable, seg chain.Segment, self int, ready int64, thold, tend int64) error {
	sends, err := Sends(nil, tab, seg, self)
	if err != nil {
		return err
	}
	for i, snd := range sends {
		issue := ready + int64(i)*thold
		arrive := issue + tend
		s.Entries = append(s.Entries, Entry{From: self, To: snd.To, Seg: snd.Seg, Issue: issue, Arrive: arrive})
		if err := s.expand(tab, snd.Seg, snd.To, arrive, thold, tend); err != nil {
			return err
		}
	}
	return nil
}

// Latency returns the analytic multicast latency of the schedule: the
// latest arrival, or 0 for a single-node multicast.
func (s *Schedule) Latency() int64 {
	var last int64
	for _, e := range s.Entries {
		if e.Arrive > last {
			last = e.Arrive
		}
	}
	return last
}

func sortEntries(es []Entry) {
	// Insertion sort by (Issue, From, To): schedules are small and mostly
	// ordered already.
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && less(es[j], es[j-1]); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

func less(a, b Entry) bool {
	if a.Issue != b.Issue {
		return a.Issue < b.Issue
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}
