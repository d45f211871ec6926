package member_test

// Fuzz targets for the churn machinery: GenSchedule must always draw a
// structurally valid schedule whose outages compile into a fault plan,
// and the engine's incremental graft/excise planner must preserve the
// delivery-vs-oracle invariant for arbitrary schedule shapes.

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mcastsim"
	"repro/internal/member"
	"repro/internal/mesh"
	"repro/internal/wormhole"
)

func FuzzGenSchedule(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint16(5000), uint8(128), uint16(500))
	f.Add(uint64(42), uint16(800), uint16(60000), uint8(0), uint16(4096))
	f.Add(uint64(7), uint16(0), uint16(1), uint8(255), uint16(0))
	m := mesh.New2D(8, 8)
	members := []int{0, 9, 18, 27, 36, 45}
	pool := []int{54, 63}
	f.Fuzz(func(t *testing.T, seed uint64, rate, horizon uint16, rejoin uint8, down uint16) {
		spec := member.ChurnSpec{
			RatePerMcycle: float64(rate),
			Horizon:       int64(horizon) + 1,
			RejoinFrac:    float64(rejoin) / 255,
			DownCycles:    int64(down),
			Seed:          seed,
		}
		sched, err := member.GenSchedule(spec, members, pool)
		if err != nil {
			t.Fatalf("valid spec rejected: %v", err)
		}
		if err := sched.Validate(); err != nil {
			t.Fatalf("generated schedule invalid: %v\n%+v", err, sched)
		}
		if end := sched.End(); end != 0 {
			for _, e := range sched.Events {
				if e.At > end {
					t.Fatalf("event at %d past End()=%d", e.At, end)
				}
			}
		}
		// The outage windows must compile into a fault plan as-is: one
		// window per node at a time, inside the fabric.
		if _, err := fault.NewPlan(m, fault.Spec{NodeOutages: sched.Outages}); err != nil {
			t.Fatalf("outages do not compile into a fault plan: %v\n%+v", err, sched.Outages)
		}
	})
}

// FuzzChurnRun drives the full engine — excision, grafting, orphan
// adoption, settle — with fuzzed schedule shapes on a small mesh and
// asserts the quiesce contract: the run never errors, and the delivered
// set equals the membership oracle (pure node churn, healthy channels).
func FuzzChurnRun(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(128))
	f.Add(uint64(9), uint16(900), uint8(0))
	f.Add(uint64(23), uint16(1500), uint8(255))
	m := mesh.New2D(4, 4)
	members := []int{0, 3, 5, 10, 12}
	pool := []int{6, 15}
	addrs := append(append([]int(nil), members...), pool...)
	ch := chain.New(addrs, m.DimOrderLess)
	const bytes = 128
	net0 := wormhole.New(m, wormhole.DefaultConfig())
	tend, err := mcastsim.Unicast(net0, addrs[0], addrs[len(addrs)-1], bytes, mcastsim.Config{Software: testSoft})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed uint64, rate uint16, rejoin uint8) {
		sched, err := member.GenSchedule(member.ChurnSpec{
			RatePerMcycle: float64(rate % 2000),
			Horizon:       20_000,
			RejoinFrac:    float64(rejoin) / 255,
			DownCycles:    2_000,
			Seed:          seed,
		}, members, pool)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := fault.NewPlan(m, fault.Spec{NodeOutages: sched.Outages})
		if err != nil {
			t.Fatal(err)
		}
		net := wormhole.New(m, wormhole.DefaultConfig())
		net.SetFaults(fp)
		res, err := member.Run(net, core.BinomialTable{Max: len(ch)}, ch, sched, bytes, mcastsim.ReliableConfig{
			Sim:    mcastsim.Config{Software: testSoft},
			TEnd:   tend,
			Repair: mcastsim.RepairIncremental,
			Seed:   seed,
		})
		if err != nil {
			t.Fatalf("churn run errored: %v\nschedule %+v", err, sched)
		}
		for i := range ch {
			delivered := res.Deliveries[i] >= 0
			inContract := res.Member[i] && res.Alive[i]
			if inContract && delivered != res.Oracle[i] {
				t.Fatalf("position %d delivered=%v oracle=%v under pure churn\nschedule %+v\nresult %+v",
					i, delivered, res.Oracle[i], sched, res)
			}
		}
	})
}
