package member_test

// The churn chaos battery: seeded random churn schedules on all four
// fabric families, with and without channel faults underneath, driven
// through the full membership engine. The invariants under test are the
// tentpole's promises — at quiesce the delivered set is a subset of the
// membership-and-fault-reachable oracle, and exactly equal to it under
// pure node churn — plus the determinism contract: bit-identical
// results on reruns and on the fast and reference kernels.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bfly"
	"repro/internal/bmin"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mcastsim"
	"repro/internal/member"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/torus"
	"repro/internal/wormhole"
)

type chaosPlatform struct {
	name string
	topo wormhole.Topology
	less func(a, b int) bool
}

func chaosPlatforms() []chaosPlatform {
	m := mesh.New2D(8, 8)
	tr := torus.New2D(8, 8)
	bm := bmin.New(64, bmin.AscentStraight)
	bf := bfly.New(64)
	return []chaosPlatform{
		{"mesh", m, m.DimOrderLess},
		{"torus", tr, tr.DimOrderLess},
		{"bmin", bm, bm.LexLess},
		{"bfly", bf, bf.LexLess},
	}
}

// churnScenario draws the group, the joiner pool and the churn schedule
// for one (platform, seed) cell.
func churnScenario(t *testing.T, p chaosPlatform, seed uint64) (chain.Chain, member.Schedule) {
	t.Helper()
	const nMembers, nPool = 10, 4
	addrs := sim.NewRNG(seed*77).Sample(p.topo.NumNodes(), nMembers+nPool)
	members, pool := addrs[:nMembers], addrs[nMembers:]
	ch := chain.New(addrs, p.less)
	sched, err := member.GenSchedule(member.ChurnSpec{
		RatePerMcycle: 300,
		Horizon:       40_000,
		RejoinFrac:    0.5,
		DownCycles:    3_000,
		Seed:          seed,
	}, members, pool)
	if err != nil {
		t.Fatal(err)
	}
	return ch, sched
}

// churnChaosRun executes one churn run; fatal on configuration errors
// (the run itself must never error on churn or faults).
func churnChaosRun(t *testing.T, p chaosPlatform, ch chain.Chain, sched member.Schedule, spec fault.Spec,
	bytes int, tend int64, kernel wormhole.Kernel, seed uint64) member.Result {
	t.Helper()
	net := wormhole.New(p.topo, wormhole.DefaultConfig())
	net.SetKernel(kernel)
	spec.NodeOutages = append(append([]fault.NodeOutage(nil), spec.NodeOutages...), sched.Outages...)
	fp, err := fault.NewPlan(p.topo, spec)
	if err != nil {
		t.Fatal(err)
	}
	net.SetFaults(fp)
	thold := testSoft.Hold.At(bytes)
	tab := core.NewOptTable(len(ch), thold, tend)
	res, err := member.Run(net, tab, ch, sched, bytes, mcastsim.ReliableConfig{
		Sim:    mcastsim.Config{Software: testSoft},
		TEnd:   tend,
		Repair: mcastsim.RepairIncremental,
		Seed:   seed,
	})
	if err != nil {
		t.Fatalf("%s seed %d: churn run errored: %v", p.name, seed, err)
	}
	if err := net.Quiesced(); err != nil {
		t.Fatalf("%s seed %d: fabric not clean after churn run: %v", p.name, seed, err)
	}
	return res
}

// TestChaosChurnInvariant: for every seeded churn schedule, at quiesce
// the delivered positions are a subset of the membership-and-fault-
// reachable oracle — exactly equal under pure node churn — and the
// whole Result is bit-identical across reruns and kernels.
func TestChaosChurnInvariant(t *testing.T) {
	const bytes = 512
	specs := []struct {
		name string
		spec fault.Spec
	}{
		{"pure-churn", fault.Spec{}},
		{"churn+dead", fault.Spec{DeadFrac: 0.05}},
	}
	sawEvents, sawCrash, sawRepair := false, false, false
	for _, p := range chaosPlatforms() {
		for seed := uint64(1); seed <= 3; seed++ {
			ch, sched := churnScenario(t, p, seed)
			tend := calibrate(t, p.topo, ch, bytes)
			if len(sched.Events) > 0 {
				sawEvents = true
			}
			if len(sched.Outages) > 0 {
				sawCrash = true
			}
			for _, sc := range specs {
				sc.spec.Seed = seed
				name := fmt.Sprintf("%s/%s/seed%d", p.name, sc.name, seed)

				res := churnChaosRun(t, p, ch, sched, sc.spec, bytes, tend, wormhole.KernelFast, seed)
				pure := sc.spec.DeadFrac == 0 && sc.spec.FlakyFrac == 0 && sc.spec.DegradedFrac == 0
				for i := range ch {
					delivered := res.Deliveries[i] >= 0
					inContract := res.Member[i] && res.Alive[i]
					if delivered && inContract && !res.Oracle[i] {
						t.Fatalf("%s: position %d delivered but outside the reachable oracle\n%+v", name, i, res)
					}
					if pure && inContract && res.Oracle[i] && !delivered {
						t.Fatalf("%s: position %d reachable under pure churn but undelivered\n%+v", name, i, res)
					}
					if res.Oracle[i] && !inContract {
						t.Fatalf("%s: oracle includes position %d outside the membership contract", name, i)
					}
				}
				if res.Overhead.Repairs > 0 || res.Overhead.RepairSends > 0 || res.Grafts > 0 {
					sawRepair = true
				}
				if res.Events != len(sched.Events) {
					t.Fatalf("%s: applied %d of %d events", name, res.Events, len(sched.Events))
				}

				again := churnChaosRun(t, p, ch, sched, sc.spec, bytes, tend, wormhole.KernelFast, seed)
				if !reflect.DeepEqual(res, again) {
					t.Fatalf("%s: rerun diverged:\n 1st %+v\n 2nd %+v", name, res, again)
				}
				ref := churnChaosRun(t, p, ch, sched, sc.spec, bytes, tend, wormhole.KernelReference, seed)
				if !reflect.DeepEqual(res, ref) {
					t.Fatalf("%s: kernels diverged:\n fast %+v\n ref  %+v", name, res, ref)
				}
			}
		}
	}
	// The battery must actually churn, not vacuously pass on empty
	// schedules.
	if !sawEvents {
		t.Fatal("no schedule drew any events; churn coverage is vacuous")
	}
	if !sawCrash {
		t.Fatal("no schedule drew a crash; excision coverage is vacuous")
	}
	if !sawRepair {
		t.Fatal("no run performed a repair or graft; repair coverage is vacuous")
	}
}
