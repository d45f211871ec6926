package member

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/mcastsim"
	"repro/internal/wormhole"
)

// Result reports one churned multicast execution. All per-position
// slices are indexed by chain position.
type Result struct {
	// Latency is the latest delivery completion among the members still
	// subscribed and alive at quiesce, from start at 0.
	Latency int64
	// Deliveries is each position's delivery-complete time, -1 if
	// undelivered at quiesce (crash amnesia erases earlier deliveries).
	Deliveries []int64
	// Member marks the positions subscribed at quiesce; Alive the
	// positions not permanently crashed. The delivery contract is owed
	// to Member && Alive positions only.
	Member, Alive []bool
	// Oracle is the membership-and-fault-reachable oracle: the closure
	// of idle-fabric routability over Member && Alive positions from
	// the source. At quiesce Delivered positions must be a subset of
	// it, and under pure node churn exactly equal.
	Oracle []bool
	// Delivered and Undelivered count the non-source Member && Alive
	// positions by outcome; Left counts members that unsubscribed, Dead
	// the permanently crashed.
	Delivered, Undelivered, Left, Dead int
	// Overhead itemizes the recovery cost (sends, retransmits, repairs,
	// orphan re-assignments), as in mcastsim.ReliableResult.
	Overhead mcastsim.Overhead
	// Grafts counts the join/rejoin graft sends, disjoint from
	// Overhead.OrphanSends.
	Grafts int64
	// Events is the number of churn events applied.
	Events int
	// FallbackAt is the cycle the policy degraded to binomial, -1 if
	// never.
	FallbackAt int64
	// Worms counts fabric messages that completed.
	Worms int64
}

// Run executes a reliable multicast of msgBytes while the churn
// schedule fires, on the mcastsim delivery engine with cfg's semantics
// (mcastsim.RunReliable's). ch must contain every address the schedule mentions —
// the initial members and every joiner — in architecture order; the
// schedule's outage windows must already be compiled into net's fault
// plan (fault.Spec.NodeOutages), since the plan is immutable once worms
// are in flight. The run is a pure function of its arguments: reruns
// and both kernels produce bit-identical Results.
func Run(net *wormhole.Network, tab core.SplitTable, ch chain.Chain, sched Schedule, msgBytes int, cfg mcastsim.ReliableConfig) (Result, error) {
	if err := sched.Validate(); err != nil {
		return Result{}, err
	}
	k := len(ch)
	pos := make(map[int]int, k)
	for i, a := range ch {
		pos[a] = i
	}
	members := make([]bool, k)
	for _, a := range sched.Members {
		p, ok := pos[a]
		if !ok {
			return Result{}, fmt.Errorf("member: initial member %d not in chain", a)
		}
		members[p] = true
	}
	for i, e := range sched.Events {
		if _, ok := pos[e.Node]; !ok {
			return Result{}, fmt.Errorf("member: event %d node %d not in chain", i, e.Node)
		}
	}
	root := pos[sched.Members[0]]
	g, err := mcastsim.Open(net, tab, ch, root, msgBytes, cfg, members)
	if err != nil {
		return Result{}, fmt.Errorf("member: %w", err)
	}

	// Membership events enter the queue that drives deadlines and
	// backoffs: every membership decision lands at its exact cycle, on
	// every kernel (invariant 11).
	applied := 0
	for _, e := range sched.Events {
		p := pos[e.Node]
		g.Schedule(e.At, func() {
			applied++
			switch e.Kind {
			case KindJoin:
				g.Join(p)
			case KindLeave:
				g.Leave(p)
			case KindCrash:
				g.Crash(p, e.Until)
			case KindRejoin:
				g.Rejoin(p)
			}
		})
	}
	if len(sched.Events) > 0 {
		// Settle round: once every event has fired and every finite
		// outage has ended, re-drive the stragglers so quiesce delivery
		// matches the post-churn oracle.
		g.Schedule(sched.End()+1, g.Settle)
	}
	if err := g.Run(sched.End()); err != nil {
		return Result{}, fmt.Errorf("member: %w", err)
	}

	rr := g.Result()
	res := Result{
		Deliveries: rr.Deliveries,
		Member:     make([]bool, k),
		Alive:      make([]bool, k),
		Overhead:   rr.Overhead,
		Grafts:     g.Grafts(),
		Events:     applied,
		FallbackAt: rr.FallbackAt,
		Worms:      rr.Worms,
	}
	in := make([]bool, k)
	for p := 0; p < k; p++ {
		wanted, alive, ever := g.Membership(p)
		res.Member[p], res.Alive[p] = wanted, alive
		in[p] = wanted && alive
		if p == root {
			continue
		}
		switch {
		case in[p] && res.Deliveries[p] >= 0:
			res.Delivered++
			res.Latency = max(res.Latency, res.Deliveries[p])
		case in[p]:
			res.Undelivered++
		case wanted:
			res.Dead++
		case ever:
			res.Left++
		}
	}
	res.Oracle = ReachableAmong(net.Topology(), net.Faults(), ch, root, in)
	return res, nil
}
