package member_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mcastsim"
	"repro/internal/member"
	"repro/internal/mesh"
	"repro/internal/sim"
)

// TestChurnDeliveriesPinned pins every position's delivery cycle on a
// short churn run (joins, leaves and crashes over an OPT tree, repaired
// incrementally), so the churn engine's one-port pacing is pinned
// exactly: spacing a node's sends by any amount other than t_hold moves
// these cycles.
func TestChurnDeliveriesPinned(t *testing.T) {
	m := mesh.New2D(8, 8)
	const k, pool, bytes = 12, 3, 1024
	addrs := sim.NewRNG(3).Sample(m.NumNodes(), k+pool)
	sched, err := member.GenSchedule(member.ChurnSpec{
		RatePerMcycle: 800, Horizon: 16384, RejoinFrac: 0.5, DownCycles: 4096, Seed: 2,
	}, addrs[:k], addrs[k:])
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := meshGroup(m, 3, k+pool)
	tend := calibrate(t, m, ch, bytes)
	res, err := member.Run(churnNet(t, m, sched, fault.Spec{}), core.NewOptTable(len(ch), testSoft.Hold.At(bytes), tend),
		ch, sched, bytes, mcastsim.ReliableConfig{
			Sim:    mcastsim.Config{Software: testSoft},
			TEnd:   tend,
			Repair: mcastsim.RepairIncremental,
			Seed:   23,
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Events) == 0 {
		t.Fatal("the schedule drew no membership event")
	}
	want := []int64{2625, 19386, -1, 6111, -1, 2062, 2410, 1203, 17660, 20085, -1, 2271, 7367, 0, 14545}
	if len(res.Deliveries) != len(want) {
		t.Fatalf("%d positions, want %d", len(res.Deliveries), len(want))
	}
	for i, d := range res.Deliveries {
		if d != want[i] {
			t.Errorf("position %d delivered at %d, want %d", i, d, want[i])
		}
	}
}
