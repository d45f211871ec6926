package traffic_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/traffic"
	"repro/internal/wormhole"
)

// TestSharedNodePacingPinned pins every request's service start and
// completion cycle on a small healthy run whose overlapping requests
// share nodes, so the one-port ledger they share (a node's sends
// t_hold apart, across every request it serves) is pinned exactly:
// spacing a node's sends by any other amount moves these cycles.
func TestSharedNodePacingPinned(t *testing.T) {
	m := mesh.New2D(4, 4)
	sizes := []int{512}
	cfg := traffic.Config{
		Software: testSoft,
		Arrival:  traffic.ArrivalSpec{Kind: traffic.ArrivalPoisson, RatePerMcycle: 2000},
		Load:     traffic.Workload{Ks: []int{6}, Sizes: sizes},
		Admit:    traffic.Admission{Policy: traffic.AdmissionFIFO},
		Requests: 8,
		Less:     m.DimOrderLess,
		Plan:     func(k int, thold, tend model.Time) core.SplitTable { return core.NewOptTable(k, thold, tend) },
		TEnd:     calibrateSizes(t, m, sizes),
		Seed:     5,
	}
	res := runTraffic(t, m, wormhole.KernelFast, cfg)
	shared := false
	for i, a := range res.Requests {
		for _, b := range res.Requests[i+1:] {
			if b.Start < a.Done && a.Start < b.Done && sharesNode(a.Addrs, b.Addrs) {
				shared = true
			}
		}
	}
	if !shared {
		t.Fatal("no two requests in service at once share a node; the pin would not cover the shared ledger")
	}
	want := [][2]int64{
		{44, 1504}, {317, 2169}, {436, 1892}, {750, 2206},
		{1504, 2962}, {1892, 3350}, {2169, 4456}, {2206, 3666},
	}
	if len(res.Requests) != len(want) {
		t.Fatalf("%d requests, want %d", len(res.Requests), len(want))
	}
	for i, rr := range res.Requests {
		if got := [2]int64{rr.Start, rr.Done}; got != want[i] {
			t.Errorf("request %d: start, done = %v, want %v", i, got, want[i])
		}
	}
}

func sharesNode(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
