package traffic_test

// Churn under sustained load: node-outage windows compiled into the
// fault plan of a Reliable-mode traffic run.

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/traffic"
	"repro/internal/wormhole"
)

// TestTrafficUnderNodeOutages: a Reliable-mode run on a fabric whose
// fault plan takes nodes down (one for good, one for a window, one from
// mid-run on) completes requests under load, leaves the fabric
// quiesced, and its whole Result is deterministic across reruns. The
// run is also the one traffic pin of live delivery deadlines: some of
// its sends expire and are retransmitted, so the Result (pinned by
// digest) moves if a deadline fires a cycle early or late, and the
// final clock moves if a deadline left over at the end is dropped.
func TestTrafficUnderNodeOutages(t *testing.T) {
	m := mesh.New2D(8, 8)
	sizes := []int{512}
	outages := []fault.NodeOutage{
		{Node: 9, From: 0, To: fault.Forever},
		{Node: 27, From: 0, To: 60_000},
		{Node: 45, From: 20_000, To: fault.Forever},
	}
	fp, err := fault.NewPlan(m, fault.Spec{NodeOutages: outages, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.Config{
		Software: testSoft,
		Arrival:  traffic.ArrivalSpec{Kind: traffic.ArrivalPoisson, RatePerMcycle: 800},
		Load:     traffic.Workload{Ks: []int{6}, Sizes: sizes},
		Admit:    traffic.Admission{Policy: traffic.AdmissionFIFO, MaxInFlight: 2},
		Requests: 30,
		Warmup:   4,
		Less:     m.DimOrderLess,
		Plan:     func(k int, thold, tend model.Time) core.SplitTable { return core.NewOptTable(k, thold, tend) },
		TEnd:     calibrateSizes(t, m, sizes),
		Reliable: true,
		Seed:     3,
	}

	run := func() (traffic.Result, int64) {
		net := wormhole.New(m, wormhole.DefaultConfig())
		net.SetFaults(fp)
		res, err := traffic.Run(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Quiesced(); err != nil {
			t.Fatalf("fabric not clean after churned traffic: %v", err)
		}
		return res, net.Now()
	}

	res, end := run()
	if res.Metrics.Completed == 0 {
		t.Fatal("no request completed under churned traffic")
	}
	if res.Metrics.Retransmits == 0 {
		t.Fatal("no send was retransmitted: the run fires no live deadline")
	}
	if again, _ := run(); !reflect.DeepEqual(res, again) {
		t.Fatal("churned traffic run not deterministic across reruns")
	}
	const wantEnd, wantDigest = 60_793, "0a5d4423e4eb0dcef7528d146c8c0a1e939fda591e804774912963281ca946d9"
	digest := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", res))))
	if end != wantEnd || digest != wantDigest {
		t.Fatalf("run ends at cycle %d with Result digest %s, want %d and %s; metrics %+v",
			end, digest, wantEnd, wantDigest, res.Metrics)
	}
}
