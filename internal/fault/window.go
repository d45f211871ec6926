package fault

// Node-level faults and explicit per-channel outage windows.
//
// A NodeOutage models a crashed processing node: for the half-open
// cycle window [From, To) the node's injection and ejection channels
// refuse every flit, atomically — the node can neither source nor sink
// a message while down, and both channels come back in the same cycle
// when the outage ends. Under the paper's one-port model the network
// interface is part of the node, not the fabric (see the package
// comment), so a node's incident channels are exactly its
// injection/ejection pair; fabric-internal channels belong to routers
// and switches, which survive a processor crash and keep forwarding
// through-traffic.
//
// Outages and explicit windows act only through the time-varying
// FaultModel.Up verdict, never through Dead: a crashed node is a
// scheduled refusal, not a routing fact, so the routing layer plans
// through it and in-flight worms stall against it (pinning the fast
// kernel's cycle-skipping via the fault-stall flag) until the recovery
// layer's deadlines withdraw them. Dead stays reserved for permanent
// link faults whose verdict never changes mid-run — the invariant the
// reachability oracle and the kernels' unreachable-freeze machinery
// are built on. Because Up is a pure read of immutable plan state, both
// kernels (fast and reference) observe outages bit-identically.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/wormhole"
)

// Forever marks an outage window that never ends (a crash with no
// scheduled recovery).
const Forever int64 = math.MaxInt64

// NodeOutage schedules one node-level fault: node Node is down for the
// half-open cycle window [From, To). Use Forever for To to model a
// permanent crash. Windows of distinct outages for the same node must
// not overlap.
type NodeOutage struct {
	Node     int
	From, To int64
}

// ChannelWindow schedules one explicit outage window on a single
// channel: the channel refuses flits on cycles in [From, To). Unlike
// the fraction-drawn failure classes, explicit windows may target any
// channel, including injection/ejection channels. Windows for the same
// channel must not overlap.
type ChannelWindow struct {
	Channel  wormhole.ChannelID
	From, To int64
}

// window is one compiled half-open outage [from, to) on a channel.
type window struct{ from, to int64 }

// winEntry is a window under construction, tagged with its origin for
// error messages.
type winEntry struct {
	c      wormhole.ChannelID
	w      window
	origin string
}

// buildWindows validates the spec's node outages and explicit windows
// against the topology and compiles them into the plan's per-channel
// window index. It is called by NewPlan after the failure classes are
// drawn, so adding outages to a spec never perturbs the seeded draws.
func (p *Plan) buildWindows(topo wormhole.Topology) error {
	if len(p.spec.NodeOutages) == 0 && len(p.spec.Windows) == 0 {
		return nil
	}
	var entries []winEntry
	perNode := make(map[int][]NodeOutage)
	for i, o := range p.spec.NodeOutages {
		if o.Node < 0 || o.Node >= topo.NumNodes() {
			return fmt.Errorf("fault: NodeOutages[%d] names node %d outside fabric of %d nodes", i, o.Node, topo.NumNodes())
		}
		if err := checkWindow(o.From, o.To); err != nil {
			return fmt.Errorf("fault: NodeOutages[%d] (node %d): %w", i, o.Node, err)
		}
		perNode[o.Node] = append(perNode[o.Node], o)
		origin := fmt.Sprintf("node %d outage", o.Node)
		w := window{from: o.From, to: o.To}
		entries = append(entries,
			winEntry{c: topo.InjectChannel(wormhole.NodeID(o.Node)), w: w, origin: origin},
			winEntry{c: topo.EjectChannel(wormhole.NodeID(o.Node)), w: w, origin: origin})
	}
	for n, os := range perNode {
		sort.Slice(os, func(i, j int) bool { return os[i].From < os[j].From })
		for i := 1; i < len(os); i++ {
			if os[i].From < os[i-1].To {
				return fmt.Errorf("fault: overlapping outages for node %d: [%d,%s) and [%d,%s)",
					n, os[i-1].From, cycleStr(os[i-1].To), os[i].From, cycleStr(os[i].To))
			}
		}
	}
	for i, cw := range p.spec.Windows {
		if cw.Channel < 0 || int(cw.Channel) >= topo.NumChannels() {
			return fmt.Errorf("fault: Windows[%d] names channel %d outside fabric of %d channels", i, cw.Channel, topo.NumChannels())
		}
		if err := checkWindow(cw.From, cw.To); err != nil {
			return fmt.Errorf("fault: Windows[%d] (channel %d): %w", i, cw.Channel, err)
		}
		entries = append(entries, winEntry{
			c: cw.Channel, w: window{from: cw.From, to: cw.To},
			origin: fmt.Sprintf("explicit window %d", i),
		})
	}

	// Sort by (channel, from) and reject any overlap on a channel — the
	// last-writer-wins ambiguity a flat check at inject time would hide.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].c != entries[j].c {
			return entries[i].c < entries[j].c
		}
		return entries[i].w.from < entries[j].w.from
	})
	for i := 1; i < len(entries); i++ {
		prev, cur := entries[i-1], entries[i]
		if cur.c == prev.c && cur.w.from < prev.w.to {
			return fmt.Errorf("fault: overlapping windows on channel %d (%s): [%d,%s) from %s and [%d,%s) from %s",
				cur.c, topo.DescribeChannel(cur.c),
				prev.w.from, cycleStr(prev.w.to), prev.origin,
				cur.w.from, cycleStr(cur.w.to), cur.origin)
		}
	}

	p.winStart = make([]int32, topo.NumChannels()+1)
	p.wins = make([]window, len(entries))
	for i, e := range entries {
		p.wins[i] = e.w
	}
	// Cumulative per-channel index: winStart[c]..winStart[c+1] are c's
	// windows in p.wins.
	idx := 0
	for c := 0; c <= topo.NumChannels(); c++ {
		for idx < len(entries) && int(entries[idx].c) < c {
			idx++
		}
		p.winStart[c] = int32(idx)
	}
	p.outages = append([]NodeOutage(nil), p.spec.NodeOutages...)
	return nil
}

// checkWindow validates one half-open [from, to) window.
func checkWindow(from, to int64) error {
	if from < 0 {
		return fmt.Errorf("window start %d < 0", from)
	}
	if to <= from {
		return fmt.Errorf("window [%d,%d) empty or inverted (use fault.Forever for a permanent outage)", from, to)
	}
	return nil
}

// cycleStr renders a window end, folding Forever.
func cycleStr(t int64) string {
	if t == Forever {
		return "forever"
	}
	return fmt.Sprint(t)
}

// windowedDown reports whether channel c is inside one of its scheduled
// outage windows at cycle now. Pure read of immutable state.
func (p *Plan) windowedDown(c wormhole.ChannelID, now int64) bool {
	for i := p.winStart[c]; i < p.winStart[c+1]; i++ {
		w := p.wins[i]
		if now >= w.from && now < w.to {
			return true
		}
	}
	return false
}

// NodeDownAt reports whether node n is inside one of its scheduled
// outages at cycle now.
func (p *Plan) NodeDownAt(n int, now int64) bool {
	for _, o := range p.outages {
		if o.Node == n && now >= o.From && now < o.To {
			return true
		}
	}
	return false
}

// Outages returns the plan's validated node outages.
func (p *Plan) Outages() []NodeOutage {
	return append([]NodeOutage(nil), p.outages...)
}
