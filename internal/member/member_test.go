package member_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mcastsim"
	"repro/internal/member"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

var testSoft = model.Software{
	Send: model.Linear{Fixed: 200, PerByte: 0.15},
	Recv: model.Linear{Fixed: 200, PerByte: 0.15},
	Hold: model.Linear{Fixed: 200, PerByte: 0.15},
}

// calibrate measures t_end between the chain's extremes on a healthy
// fabric, as every experiment driver does before installing faults.
func calibrate(t *testing.T, topo wormhole.Topology, addrs []int, bytes int) int64 {
	t.Helper()
	net := wormhole.New(topo, wormhole.DefaultConfig())
	tend, err := mcastsim.Unicast(net, addrs[0], addrs[len(addrs)-1], bytes, mcastsim.Config{Software: testSoft})
	if err != nil {
		t.Fatal(err)
	}
	return tend
}

// meshGroup places k members on the mesh and returns the dim-ordered
// chain with the root index.
func meshGroup(m *mesh.Mesh, seed uint64, k int) (chain.Chain, int) {
	addrs := sim.NewRNG(seed).Sample(m.NumNodes(), k)
	ch := chain.New(addrs, m.DimOrderLess)
	root, ok := ch.Index(addrs[0])
	if !ok {
		panic("source lost")
	}
	return ch, root
}

// churnNet builds a network with the schedule's outage windows compiled
// into the fault plan, as every churn driver must.
func churnNet(t *testing.T, topo wormhole.Topology, sched member.Schedule, spec fault.Spec) *wormhole.Network {
	t.Helper()
	spec.NodeOutages = append(append([]fault.NodeOutage(nil), spec.NodeOutages...), sched.Outages...)
	fp, err := fault.NewPlan(topo, spec)
	if err != nil {
		t.Fatal(err)
	}
	net := wormhole.New(topo, wormhole.DefaultConfig())
	net.SetFaults(fp)
	return net
}

func TestGenScheduleDeterministic(t *testing.T) {
	members := []int{0, 5, 10, 15, 20, 25, 30, 35}
	pool := []int{40, 45, 50}
	spec := member.ChurnSpec{RatePerMcycle: 400, Horizon: 100_000, RejoinFrac: 0.5, DownCycles: 2048, Seed: 42}

	s1, err := member.GenSchedule(spec, members, pool)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := member.GenSchedule(spec, members, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same spec drew different schedules:\n1st %+v\n2nd %+v", s1, s2)
	}
	if err := s1.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	// rate 400/Mcycle over 100k cycles budgets 40 events; rejoins can
	// only add to that.
	if len(s1.Events) < 40 {
		t.Fatalf("schedule has %d events, want >= 40", len(s1.Events))
	}
	for i := 1; i < len(s1.Events); i++ {
		if s1.Events[i].At < s1.Events[i-1].At {
			t.Fatalf("events out of order at %d: %+v", i, s1.Events)
		}
	}

	spec.Seed = 43
	s3, err := member.GenSchedule(spec, members, pool)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1.Events, s3.Events) {
		t.Fatal("different seeds drew identical schedules")
	}
}

func TestGenScheduleZeroRate(t *testing.T) {
	s, err := member.GenSchedule(member.ChurnSpec{Horizon: 10_000}, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 0 || len(s.Outages) != 0 {
		t.Fatalf("zero rate produced events: %+v", s)
	}
	if s.End() != 0 {
		t.Fatalf("empty schedule End() = %d, want 0", s.End())
	}
}

func TestGenScheduleValidation(t *testing.T) {
	ok := member.ChurnSpec{RatePerMcycle: 100, Horizon: 10_000}
	cases := []struct {
		name    string
		spec    member.ChurnSpec
		members []int
		pool    []int
	}{
		{"one member", ok, []int{0}, nil},
		{"zero horizon", member.ChurnSpec{RatePerMcycle: 100}, []int{0, 1}, nil},
		{"negative rate", member.ChurnSpec{RatePerMcycle: -1, Horizon: 100}, []int{0, 1}, nil},
		{"rejoin frac", member.ChurnSpec{RatePerMcycle: 1, Horizon: 100, RejoinFrac: 1.5}, []int{0, 1}, nil},
		{"negative down", member.ChurnSpec{RatePerMcycle: 1, Horizon: 100, DownCycles: -1}, []int{0, 1}, nil},
		{"NaN rate", member.ChurnSpec{RatePerMcycle: math.NaN(), Horizon: 100}, []int{0, 1}, nil},
		{"infinite rate", member.ChurnSpec{RatePerMcycle: math.Inf(1), Horizon: 100}, []int{0, 1}, nil},
		{"over one event per cycle", member.ChurnSpec{RatePerMcycle: 1e12, Horizon: 100}, []int{0, 1}, nil},
		{"NaN rejoin frac", member.ChurnSpec{RatePerMcycle: 1, Horizon: 100, RejoinFrac: math.NaN()}, []int{0, 1}, nil},
		{"dup member", ok, []int{0, 1, 1}, nil},
		{"pool overlaps", ok, []int{0, 1}, []int{1}},
	}
	for _, c := range cases {
		if _, err := member.GenSchedule(c.spec, c.members, c.pool); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	base := []int{0, 1, 2}
	cases := []struct {
		name  string
		sched member.Schedule
	}{
		{"churns source", member.Schedule{Members: base, Events: []member.Event{
			{At: 5, Kind: member.KindLeave, Node: 0}}}},
		{"out of order", member.Schedule{Members: base, Events: []member.Event{
			{At: 9, Kind: member.KindLeave, Node: 1}, {At: 5, Kind: member.KindLeave, Node: 2}}}},
		{"double crash", member.Schedule{Members: base, Events: []member.Event{
			{At: 5, Kind: member.KindCrash, Node: 1, Until: fault.Forever},
			{At: 9, Kind: member.KindCrash, Node: 1, Until: fault.Forever}},
			Outages: []fault.NodeOutage{{Node: 1, From: 5, To: fault.Forever}, {Node: 1, From: 9, To: fault.Forever}}}},
		{"rejoin while up", member.Schedule{Members: base, Events: []member.Event{
			{At: 5, Kind: member.KindRejoin, Node: 1}}}},
		{"empty crash window", member.Schedule{Members: base, Events: []member.Event{
			{At: 5, Kind: member.KindCrash, Node: 1, Until: 5}},
			Outages: []fault.NodeOutage{{Node: 1, From: 5, To: 5}}}},
		{"outage count", member.Schedule{Members: base, Events: []member.Event{
			{At: 5, Kind: member.KindCrash, Node: 1, Until: fault.Forever}}}},
	}
	for _, c := range cases {
		if err := c.sched.Validate(); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// TestNoChurnMatchesRecover: with an empty schedule the churn engine
// must execute exactly the recovery layer's run — same deliveries, same
// latency, same overhead — on both a healthy and a faulted fabric.
func TestNoChurnMatchesRecover(t *testing.T) {
	m := mesh.New2D(8, 8)
	const k, bytes = 12, 512
	ch, root := meshGroup(m, 7, k)
	tend := calibrate(t, m, ch, bytes)
	sched := member.Schedule{Members: append([]int{ch[root]}, without(ch, ch[root])...)}

	for _, spec := range []fault.Spec{{}, {DeadFrac: 0.06, Seed: 3}} {
		fp, err := fault.NewPlan(m, spec)
		if err != nil {
			t.Fatal(err)
		}
		tab := core.BinomialTable{Max: k}
		netR := wormhole.New(m, wormhole.DefaultConfig())
		netR.SetFaults(fp)
		base, err := mcastsim.RunReliable(netR, tab, ch, root, bytes, mcastsim.ReliableConfig{
			Sim: mcastsim.Config{Software: testSoft}, TEnd: tend, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		netM := wormhole.New(m, wormhole.DefaultConfig())
		netM.SetFaults(fp)
		got, err := member.Run(netM, tab, ch, sched, bytes, mcastsim.ReliableConfig{
			Sim: mcastsim.Config{Software: testSoft}, TEnd: tend, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if got.Latency != base.Latency || !reflect.DeepEqual(got.Deliveries, base.Deliveries) {
			t.Fatalf("no-churn run diverges from RunReliable:\n got %+v\nbase %+v", got, base)
		}
		if !reflect.DeepEqual(got.Overhead, base.Overhead) {
			t.Fatalf("no-churn overhead diverges:\n got %+v\nbase %+v", got.Overhead, base.Overhead)
		}
		if got.Delivered != base.Delivered || got.Undelivered != base.Abandoned {
			t.Fatalf("no-churn outcome counts diverge: got %+v base %+v", got, base)
		}
		for i := range ch {
			if got.Oracle[i] != (base.Deliveries[i] >= 0) {
				t.Fatalf("spec %+v: oracle[%d]=%v but reliable delivery=%d", spec, i, got.Oracle[i], base.Deliveries[i])
			}
		}
	}
}

// without returns addrs minus x, preserving order.
func without(addrs []int, x int) []int {
	out := make([]int, 0, len(addrs))
	for _, a := range addrs {
		if a != x {
			out = append(out, a)
		}
	}
	return out
}

// run executes one churn run with the given policy on a fresh fabric.
func run(t *testing.T, topo wormhole.Topology, tab core.SplitTable, ch chain.Chain, sched member.Schedule,
	bytes int, tend int64, policy mcastsim.RepairPolicy) member.Result {
	t.Helper()
	net := churnNet(t, topo, sched, fault.Spec{})
	res, err := member.Run(net, tab, ch, sched, bytes, mcastsim.ReliableConfig{
		Sim:    mcastsim.Config{Software: testSoft},
		TEnd:   tend,
		Repair: policy,
		Seed:   23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCrashRepairPolicyComparison pins the acceptance relation on one
// deterministic casualty: the relay carrying the root's largest subtree
// crashes permanently before the first flit moves. Incremental repair
// must deliver no less than full re-planning while issuing strictly
// fewer repair sends (one graft versus a full re-split).
func TestCrashRepairPolicyComparison(t *testing.T) {
	m := mesh.New2D(8, 8)
	const k, bytes = 16, 512
	ch, root := meshGroup(m, 21, k)
	tend := calibrate(t, m, ch, bytes)
	tab := core.BinomialTable{Max: k}

	positions := make([]int, k)
	for i := range positions {
		positions[i] = i
	}
	sends, err := plan.RepairSends(nil, tab, positions, root)
	if err != nil {
		t.Fatal(err)
	}
	first := sends[0]
	if len(first.Live) < 3 {
		t.Fatalf("first send carries %d members; need a subtree for repair to matter", len(first.Live))
	}
	victim := ch[first.To]
	sched := member.Schedule{
		Members: append([]int{ch[root]}, without(ch, ch[root])...),
		Events:  []member.Event{{At: 1, Kind: member.KindCrash, Node: victim, Until: fault.Forever}},
		Outages: []fault.NodeOutage{{Node: victim, From: 1, To: fault.Forever}},
		Horizon: 4096,
	}

	full := run(t, m, tab, ch, sched, bytes, tend, mcastsim.RepairFull)
	incr := run(t, m, tab, ch, sched, bytes, tend, mcastsim.RepairIncremental)

	for name, res := range map[string]member.Result{"full": full, "incremental": incr} {
		if res.Dead != 1 || res.Left != 0 {
			t.Fatalf("%s: casualty accounting wrong: %+v", name, res)
		}
		if res.Delivered != k-2 || res.Undelivered != 0 {
			t.Fatalf("%s: delivered %d undelivered %d, want %d and 0", name, res.Delivered, res.Undelivered, k-2)
		}
		for i := range ch {
			if (res.Deliveries[i] >= 0) != res.Oracle[i] && i != root {
				t.Fatalf("%s: position %d delivery=%d oracle=%v", name, i, res.Deliveries[i], res.Oracle[i])
			}
		}
		if res.Overhead.RepairSends < 1 {
			t.Fatalf("%s: crash excision issued no repair sends: %+v", name, res.Overhead)
		}
	}
	if incr.Overhead.RepairSends >= full.Overhead.RepairSends {
		t.Fatalf("incremental repair sends %d not strictly fewer than full re-plan's %d",
			incr.Overhead.RepairSends, full.Overhead.RepairSends)
	}
	if again := run(t, m, tab, ch, sched, bytes, tend, mcastsim.RepairIncremental); !reflect.DeepEqual(incr, again) {
		t.Fatalf("churn run not deterministic:\n1st %+v\n2nd %+v", incr, again)
	}
}

// TestJoinGraftedOntoDeliveredMember: a node joining mid-run is grafted
// from the nearest delivered member and counted as a graft, not an
// orphan rescue.
func TestJoinGraftedOntoDeliveredMember(t *testing.T) {
	m := mesh.New2D(8, 8)
	const bytes = 512
	addrs := sim.NewRNG(31).Sample(m.NumNodes(), 9)
	joiner := addrs[8]
	members := addrs[:8]
	ch := chain.New(addrs, m.DimOrderLess)
	tend := calibrate(t, m, addrs, bytes)
	posJ, _ := ch.Index(joiner)

	sched := member.Schedule{
		Members: members,
		Events:  []member.Event{{At: 1, Kind: member.KindJoin, Node: joiner}},
		Horizon: 4096,
	}
	res := run(t, m, core.BinomialTable{Max: len(ch)}, ch, sched, bytes, tend, mcastsim.RepairFull)
	if !res.Member[posJ] || res.Deliveries[posJ] < 0 {
		t.Fatalf("joiner not delivered: %+v", res)
	}
	if res.Grafts < 1 {
		t.Fatalf("join delivered without a graft: %+v", res)
	}
	if res.Delivered != len(ch)-1 || res.Undelivered != 0 {
		t.Fatalf("outcome wrong: %+v", res)
	}
}

// TestLeaveExcisesSubtree: the relay carrying the root's largest
// subtree unsubscribes before the first flit moves. It is owed nothing
// (Left, not Undelivered, and outside the oracle), but its stranded
// subtree members must all still be delivered through repair.
func TestLeaveExcisesSubtree(t *testing.T) {
	m := mesh.New2D(8, 8)
	const k, bytes = 14, 512
	ch, root := meshGroup(m, 9, k)
	tend := calibrate(t, m, ch, bytes)
	tab := core.BinomialTable{Max: k}

	positions := make([]int, k)
	for i := range positions {
		positions[i] = i
	}
	sends, err := plan.RepairSends(nil, tab, positions, root)
	if err != nil {
		t.Fatal(err)
	}
	leaver := ch[sends[0].To]
	posL := sends[0].To
	sched := member.Schedule{
		Members: append([]int{ch[root]}, without(ch, ch[root])...),
		Events:  []member.Event{{At: 1, Kind: member.KindLeave, Node: leaver}},
		Horizon: 4096,
	}
	res := run(t, m, tab, ch, sched, bytes, tend, mcastsim.RepairIncremental)
	if res.Member[posL] || !res.Alive[posL] || res.Oracle[posL] {
		t.Fatalf("leaver still in contract: %+v", res)
	}
	if res.Left != 1 || res.Dead != 0 {
		t.Fatalf("leave accounting wrong: %+v", res)
	}
	if res.Delivered != k-2 || res.Undelivered != 0 {
		t.Fatalf("stranded subtree not repaired: %+v", res)
	}
}

// TestCrashRejoinRedelivered: a member crashes mid-run (losing whatever
// it held) and rejoins after its outage; it must be re-delivered and
// the final membership made whole.
func TestCrashRejoinRedelivered(t *testing.T) {
	m := mesh.New2D(8, 8)
	const k, bytes = 10, 512
	ch, root := meshGroup(m, 13, k)
	tend := calibrate(t, m, ch, bytes)
	victimPos := (root + 1) % k
	victim := ch[victimPos]
	const crashAt, downFor = 1, 6000

	sched := member.Schedule{
		Members: append([]int{ch[root]}, without(ch, ch[root])...),
		Events: []member.Event{
			{At: crashAt, Kind: member.KindCrash, Node: victim, Until: crashAt + downFor},
			{At: crashAt + downFor, Kind: member.KindRejoin, Node: victim},
		},
		Outages: []fault.NodeOutage{{Node: victim, From: crashAt, To: crashAt + downFor}},
		Horizon: 8192,
	}
	res := run(t, m, core.BinomialTable{Max: k}, ch, sched, bytes, tend, mcastsim.RepairIncremental)
	if !res.Member[victimPos] || !res.Alive[victimPos] {
		t.Fatalf("rejoined member not restored: %+v", res)
	}
	if res.Deliveries[victimPos] < crashAt+downFor {
		t.Fatalf("victim delivery %d predates its rejoin at %d", res.Deliveries[victimPos], crashAt+downFor)
	}
	if res.Delivered != k-1 || res.Undelivered != 0 || res.Dead != 0 {
		t.Fatalf("membership not made whole: %+v", res)
	}
}
