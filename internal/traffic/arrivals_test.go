package traffic

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/wormhole"
)

// TestLazyArrivalsMatchEager: a run that queues each request's arrival
// when its predecessor arrives, on the sequence number claimed for it at
// the start, equals a run that queues every arrival up front. The load
// is tuned for same-cycle ties: arrivals a few cycles apart, software
// costs of a few cycles, and a bounded admission queue whose shedding
// depends on whether an arrival or a completion at the same cycle comes
// first. A fresh sequence number for each arrival instead of its claimed
// one reorders such ties and fails the test.
func TestLazyArrivalsMatchEager(t *testing.T) {
	m := mesh.New2D(4, 4)
	soft := model.Software{
		Send: model.Linear{Fixed: 3},
		Recv: model.Linear{Fixed: 2},
		Hold: model.Linear{Fixed: 3},
	}
	run := func(seed uint64, eager bool) Result {
		eagerArrivals = eager
		defer func() { eagerArrivals = false }()
		res, err := Run(wormhole.New(m, wormhole.DefaultConfig()), Config{
			Software: soft,
			Arrival:  ArrivalSpec{Kind: ArrivalPoisson, RatePerMcycle: 40000},
			Load:     Workload{Ks: []int{2, 3, 5}, Sizes: []int{0, 8}},
			Admit:    Admission{Policy: AdmissionBounded, MaxInFlight: 2, QueueCap: 1},
			Requests: 200,
			Warmup:   20,
			Less:     m.DimOrderLess,
			Plan:     func(k int, thold, tend model.Time) core.SplitTable { return core.NewOptTable(k, thold, tend) },
			TEnd:     func(int) model.Time { return 12 },
			Seed:     seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return res
	}
	shed := 0
	for seed := uint64(1); seed <= 32; seed++ {
		lazy, eager := run(seed, false), run(seed, true)
		if !reflect.DeepEqual(lazy, eager) {
			t.Errorf("seed %d: claimed arrivals diverge from arrivals queued up front", seed)
		}
		shed += lazy.Metrics.Shed
	}
	if shed == 0 {
		t.Fatal("no request was shed; admission order went untested")
	}
}
