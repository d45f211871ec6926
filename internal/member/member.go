// Package member models dynamic multicast membership under churn:
// nodes join, leave, crash and rejoin while a multicast is in flight.
// It has two halves:
//
//   - GenSchedule draws a seeded churn schedule — join/leave/crash/
//     rejoin events plus the node-outage windows the crashes imply —
//     from dedicated RNG streams, entirely before any fabric stepping.
//     The schedule (and therefore the whole run) is a pure function of
//     its spec, so churn experiments stay deterministic across reruns,
//     kernels and shard merges, and the outage windows can be compiled
//     into the immutable fault.Plan before the network carries a
//     single flit (wormhole.Network.SetFaults refuses changes with
//     active worms, deliberately).
//
//   - Run feeds the schedule to the recover delivery engine: membership
//     events are entries in the same event queue that drives timeouts
//     and backoffs, so every membership decision happens at an exact
//     cycle (DESIGN.md invariant 11). The engine excises a crashed
//     victim's subtree and re-parents the survivors onto the nearest
//     delivered members, grafts joins and rejoins onto the nearest
//     delivered member in one send, and repairs along the configured
//     recover.RepairPolicy ladder. Run itself only validates the
//     schedule, schedules its events, and assembles the Result and the
//     oracle.
//
// The correctness contract at quiesce: the delivered set over the
// final alive membership equals the membership-and-fault-reachable
// oracle — what a closure of idle-fabric routability over the
// surviving members can possibly reach — bit-identically across the
// fast, reference and domain-parallel kernels.
package member

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Kind classifies one churn event.
type Kind uint8

const (
	// KindJoin adds a node from the candidate pool to the group.
	KindJoin Kind = iota
	// KindLeave removes a member gracefully: the node stays up but
	// unsubscribes, so it is no longer owed delivery nor asked to relay
	// new work.
	KindLeave
	// KindCrash takes the member's node down: both its fabric channels
	// refuse flits for the outage window, and anything it had received
	// is lost (rejoin starts from amnesia).
	KindCrash
	// KindRejoin marks the end of a crash outage: the node is back up
	// and re-subscribes, needing delivery again.
	KindRejoin
)

func (k Kind) String() string {
	switch k {
	case KindJoin:
		return "join"
	case KindLeave:
		return "leave"
	case KindCrash:
		return "crash"
	case KindRejoin:
		return "rejoin"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one membership change at an exact cycle.
type Event struct {
	// At is the cycle the event takes effect, relative to run start.
	At int64
	// Kind is the event class.
	Kind Kind
	// Node is the fabric node address affected. Never the source.
	Node int
	// Until is the crash outage end (start + DownCycles, or
	// fault.Forever for a permanent crash); zero for other kinds.
	Until int64
}

// Schedule is a complete churn scenario: the initial membership, the
// time-ordered events, and the node-outage windows the crashes imply,
// ready to merge into a fault.Spec before the run starts.
type Schedule struct {
	// Members is the initial group membership; Members[0] is the
	// multicast source and is never churned.
	Members []int
	// Events is the event list, ascending by At (rejoins ordered before
	// same-cycle draws).
	Events []Event
	// Outages are the crash windows, one per KindCrash event, valid for
	// fault.Spec.NodeOutages.
	Outages []fault.NodeOutage
	// Horizon is the scheduling horizon the events were drawn over.
	Horizon int64
}

// ChurnSpec parameterizes a seeded churn schedule.
type ChurnSpec struct {
	// RatePerMcycle is the expected number of churn events per million
	// cycles; the event count is RatePerMcycle * Horizon / 1e6 rounded.
	RatePerMcycle float64
	// Horizon is the window (in cycles, from run start) events are
	// drawn over. Required.
	Horizon int64
	// RejoinFrac is the probability a crash schedules a rejoin after
	// DownCycles instead of being permanent.
	RejoinFrac float64
	// DownCycles is the outage length for rejoining crashes (default
	// 4096).
	DownCycles int64
	// Seed selects the schedule; times, kinds and node picks come from
	// three dedicated streams so varying one axis cannot shift another.
	Seed uint64
}

// Seed-stream separators for the three draw streams.
const (
	seedTimes = 0x9e37_79b9_7f4a_7c15
	seedKinds = 0xc2b2_ae3d_27d4_eb4f
	seedPicks = 0x1656_67b1_9e37_79f9
)

// GenSchedule draws a churn schedule over the initial members and the
// joiner pool. members[0] is the source and is never churned; pool
// holds the node addresses joins draw from, disjoint from members. The
// same (spec, members, pool) always yields the same schedule.
func GenSchedule(spec ChurnSpec, members, pool []int) (Schedule, error) {
	if len(members) < 2 {
		return Schedule{}, fmt.Errorf("member: need a source and at least one destination, got %d members", len(members))
	}
	if spec.Horizon < 1 {
		return Schedule{}, fmt.Errorf("member: Horizon %d < 1", spec.Horizon)
	}
	if spec.RatePerMcycle < 0 {
		return Schedule{}, fmt.Errorf("member: negative churn rate %g", spec.RatePerMcycle)
	}
	// The event count is sized from the rate, so a NaN, infinite or
	// denser-than-one-event-per-cycle rate is an error, not an allocation.
	if !(spec.RatePerMcycle <= 1e6) {
		return Schedule{}, fmt.Errorf("member: churn rate %g events/Mcycle is not a finite rate of at most one event per cycle", spec.RatePerMcycle)
	}
	if !(spec.RejoinFrac >= 0 && spec.RejoinFrac <= 1) {
		return Schedule{}, fmt.Errorf("member: RejoinFrac %g outside [0,1]", spec.RejoinFrac)
	}
	if spec.DownCycles < 0 {
		return Schedule{}, fmt.Errorf("member: negative DownCycles %d", spec.DownCycles)
	}
	if spec.DownCycles == 0 {
		spec.DownCycles = 4096
	}
	seen := make(map[int]bool, len(members)+len(pool))
	for _, n := range members {
		if seen[n] {
			return Schedule{}, fmt.Errorf("member: duplicate member address %d", n)
		}
		seen[n] = true
	}
	for _, n := range pool {
		if seen[n] {
			return Schedule{}, fmt.Errorf("member: pool address %d duplicates a member or pool entry", n)
		}
		seen[n] = true
	}

	n := int(spec.RatePerMcycle*float64(spec.Horizon)/1e6 + 0.5)
	sched := Schedule{
		Members: append([]int(nil), members...),
		Horizon: spec.Horizon,
	}
	if n == 0 {
		return sched, nil
	}

	rngT := sim.NewRNG(spec.Seed ^ seedTimes)
	rngK := sim.NewRNG(spec.Seed ^ seedKinds)
	rngN := sim.NewRNG(spec.Seed ^ seedPicks)

	// Draw all event times first (the dedicated stream), strictly
	// ascending so same-cycle draw order can never matter.
	times := make([]int64, n)
	for i := range times {
		times[i] = 1 + int64(rngT.Uint64()%uint64(spec.Horizon))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for i := 1; i < n; i++ {
		if times[i] <= times[i-1] {
			times[i] = times[i-1] + 1
		}
	}

	// Walk the times, maintaining the membership model: active members
	// eligible for leave/crash (source excluded), the joiner pool, and
	// crashed members pending rejoin.
	active := append([]int(nil), members[1:]...)
	avail := append([]int(nil), pool...)
	type pending struct {
		at   int64
		node int
	}
	var rejoins []pending
	flush := func(upTo int64) {
		for len(rejoins) > 0 && rejoins[0].at <= upTo {
			p := rejoins[0]
			rejoins = rejoins[1:]
			sched.Events = append(sched.Events, Event{At: p.at, Kind: KindRejoin, Node: p.node})
			active = append(active, p.node)
		}
	}
	for _, t := range times {
		flush(t)
		kind := Kind(rngK.Uint64() % 3)
		// Fall back across kinds when the drawn one has no eligible
		// node, so the schedule keeps its event budget when it can.
		if kind == KindJoin && len(avail) == 0 {
			kind = KindCrash
		}
		if (kind == KindLeave || kind == KindCrash) && len(active) == 0 {
			kind = KindJoin
		}
		switch kind {
		case KindJoin:
			if len(avail) == 0 {
				continue
			}
			i := int(rngN.Uint64() % uint64(len(avail)))
			node := avail[i]
			avail = append(avail[:i], avail[i+1:]...)
			active = append(active, node)
			sched.Events = append(sched.Events, Event{At: t, Kind: KindJoin, Node: node})
		case KindLeave:
			i := int(rngN.Uint64() % uint64(len(active)))
			node := active[i]
			active = append(active[:i], active[i+1:]...)
			// A graceful leaver may subscribe again: it goes back to the
			// joiner pool (it even kept the payload, the engine knows).
			avail = append(avail, node)
			sched.Events = append(sched.Events, Event{At: t, Kind: KindLeave, Node: node})
		case KindCrash:
			i := int(rngN.Uint64() % uint64(len(active)))
			node := active[i]
			active = append(active[:i], active[i+1:]...)
			until := fault.Forever
			if spec.RejoinFrac > 0 && float64(rngK.Uint64()%1_000_000) < spec.RejoinFrac*1_000_000 {
				until = t + spec.DownCycles
				rejoins = append(rejoins, pending{at: until, node: node})
				sort.Slice(rejoins, func(a, b int) bool { return rejoins[a].at < rejoins[b].at })
			}
			sched.Events = append(sched.Events, Event{At: t, Kind: KindCrash, Node: node, Until: until})
			sched.Outages = append(sched.Outages, fault.NodeOutage{Node: node, From: t, To: until})
		}
	}
	flush(fault.Forever - 1)
	return sched, nil
}

// End returns the cycle by which every event has fired and every
// finite outage has ended — the earliest cycle the engine may schedule
// its settle round at.
func (s Schedule) End() int64 {
	end := int64(0)
	for _, e := range s.Events {
		if e.At > end {
			end = e.At
		}
	}
	for _, o := range s.Outages {
		if o.To != fault.Forever && o.To > end {
			end = o.To
		}
	}
	return end
}

// Validate checks the schedule's structural invariants: events
// time-ordered, crash/rejoin pairing consistent, no event touching the
// source.
func (s Schedule) Validate() error {
	if len(s.Members) < 2 {
		return fmt.Errorf("member: schedule has %d members", len(s.Members))
	}
	src := s.Members[0]
	down := map[int]bool{}
	var prev int64
	crashes := 0
	for i, e := range s.Events {
		if e.At < prev {
			return fmt.Errorf("member: event %d at %d before its predecessor at %d", i, e.At, prev)
		}
		prev = e.At
		if e.Node == src {
			return fmt.Errorf("member: event %d churns the source node %d", i, src)
		}
		switch e.Kind {
		case KindCrash:
			if down[e.Node] {
				return fmt.Errorf("member: event %d crashes node %d while already down", i, e.Node)
			}
			if e.Until <= e.At {
				return fmt.Errorf("member: event %d crash window [%d,%d) empty", i, e.At, e.Until)
			}
			down[e.Node] = true
			crashes++
		case KindRejoin:
			if !down[e.Node] {
				return fmt.Errorf("member: event %d rejoins node %d that is not down", i, e.Node)
			}
			delete(down, e.Node)
		case KindJoin, KindLeave:
		default:
			return fmt.Errorf("member: event %d has unknown kind %d", i, e.Kind)
		}
	}
	if crashes != len(s.Outages) {
		return fmt.Errorf("member: %d crash events but %d outages", crashes, len(s.Outages))
	}
	return nil
}
