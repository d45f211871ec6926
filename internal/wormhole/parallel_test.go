package wormhole_test

// Battery for the deterministic domain-parallel kernel: large-mesh
// differentials (the scale-smoke CI target runs these under the race
// detector), faulted-fabric equivalence, partition-independence property
// tests with adversarial random domain maps, and the SetParallelism /
// Close lifecycle contract. All equivalence checks compare against the
// serial kernels byte for byte — parallelism must be a pure wall-clock
// optimization.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bmin"
	"repro/internal/fault"
	"repro/internal/mesh"
	. "repro/internal/wormhole"
)

// TestParallelDifferentialLargeMesh is the scale-smoke differential: a
// 64×64 mesh under a dense random workload, stepped with small P against
// the serial fast kernel. Run with -race this also audits the worker
// pool and the domain accumulators for data races.
func TestParallelDifferentialLargeMesh(t *testing.T) {
	topo := mesh.New2D(64, 64)
	cfg := DefaultConfig()
	r := rand.New(rand.NewSource(4096))
	sends := randWorkload(r, topo.NumNodes(), 160)

	serial := New(topo, cfg)
	want := runWorkloadQuiet(t, serial, sends)

	for _, P := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("P%d", P), func(t *testing.T) {
			par := New(topo, cfg)
			par.SetParallelism(P)
			got := runWorkloadQuiet(t, par, sends)
			par.Close()
			diffSnapshots(t, got, want)
		})
	}
}

// TestParallelDifferentialFaults pins equivalence when the fault model
// gates flit motion: dead channels detour routing, degraded and flaky
// channels stall flits mid-worm (exercising the faultStall accumulator),
// and unreachable destinations must surface the same error text at the
// same cycle for every P.
func TestParallelDifferentialFaults(t *testing.T) {
	platforms := []struct {
		name string
		topo Topology
	}{
		{"mesh16x16", mesh.New2D(16, 16)},
		{"bmin128", bmin.New(128, bmin.AscentAdaptive)},
	}
	for _, p := range platforms {
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", p.name, seed), func(t *testing.T) {
				plan := fault.MustPlan(p.topo, fault.Spec{
					DeadFrac:     0.02,
					DegradedFrac: 0.05,
					FlakyFrac:    0.05,
					Seed:         uint64(seed)*0x9e3779b9 + 11,
				})
				r := rand.New(rand.NewSource(271 + seed*104729))
				sends := randWorkload(r, p.topo.NumNodes(), 40)

				serial := New(p.topo, DefaultConfig())
				serial.SetFaults(plan)
				want, wantErr := driveWorkload(t, serial, sends, false)

				for _, P := range []int{2, 4, 8} {
					par := New(p.topo, DefaultConfig())
					par.SetFaults(plan)
					par.SetParallelism(P)
					got, gotErr := driveWorkload(t, par, sends, false)
					if gotErr != wantErr {
						t.Fatalf("P=%d error text diverges:\n got %q\nwant %q", P, gotErr, wantErr)
					}
					diffSnapshots(t, got, want)
				}
			})
		}
	}
}

// TestParallelRandomPartitions is the partition-independence property:
// results must be byte-identical to serial not just for the contiguous
// default partition but for *any* node→domain map — including adversarial
// ones where a worm's neighbours live all over the domain space. Random
// maps are installed through the SetDomainsForTest hook.
func TestParallelRandomPartitions(t *testing.T) {
	topo := mesh.New2D(16, 16)
	cfg := DefaultConfig()
	cfg.RouterDelay = 3
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(808 + seed*31337))
			sends := randWorkload(r, topo.NumNodes(), 48)

			serial := New(topo, cfg)
			want := runWorkloadQuiet(t, serial, sends)

			for _, P := range []int{2, 4, 8} {
				dom := make([]int32, topo.NumNodes())
				for u := range dom {
					dom[u] = int32(r.Intn(P))
				}
				par := New(topo, cfg)
				par.SetParallelism(P)
				par.SetDomainsForTest(dom)
				got := runWorkloadQuiet(t, par, sends)
				par.Close()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("random partition P=%d diverges:", P)
					diffSnapshots(t, got, want)
				}
			}
		})
	}
}

// TestParallelObserverFallback pins the documented fallback: a parallel
// network with an attached Observer silently steps the serial fast
// kernel, so its outcome — events included — must match a plain serial
// run exactly.
func TestParallelObserverFallback(t *testing.T) {
	topo := mesh.New2D(8, 8)
	r := rand.New(rand.NewSource(55))
	sends := randWorkload(r, topo.NumNodes(), 24)

	serial := New(topo, DefaultConfig())
	want := runWorkload(t, serial, sends)

	par := New(topo, DefaultConfig())
	par.SetParallelism(4)
	got := runWorkload(t, par, sends) // attaches an observer
	par.Close()
	diffSnapshots(t, got, want)
}

// TestSetParallelismContract covers the lifecycle rules: idle-only
// reconfiguration, p < 1 rejection, clamping to the node count, and
// Close being idempotent and reverting to serial while leaving the
// network usable.
func TestSetParallelismContract(t *testing.T) {
	topo := mesh.New2D(4, 4)
	n := New(topo, DefaultConfig())

	if got := n.Parallelism(); got != 1 {
		t.Fatalf("fresh network Parallelism() = %d, want 1", got)
	}
	n.SetParallelism(4)
	if got := n.Parallelism(); got != 4 {
		t.Fatalf("Parallelism() = %d after SetParallelism(4)", got)
	}
	n.SetParallelism(1 << 20) // clamped to the node count
	if got := n.Parallelism(); got != topo.NumNodes() {
		t.Fatalf("Parallelism() = %d, want clamp to %d nodes", got, topo.NumNodes())
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetParallelism(0) did not panic")
			}
		}()
		n.SetParallelism(0)
	}()

	n.SetParallelism(2)
	n.Send(0, 15, 64, nil, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetParallelism with active worms did not panic")
			}
		}()
		n.SetParallelism(4)
	}()
	if _, err := n.RunUntilIdle(1 << 16); err != nil {
		t.Fatal(err)
	}

	n.Close()
	if got := n.Parallelism(); got != 1 {
		t.Fatalf("Parallelism() = %d after Close, want 1", got)
	}
	n.Close() // idempotent

	// The closed network keeps working serially.
	n.Send(0, 15, 64, nil, nil)
	if _, err := n.RunUntilIdle(1 << 16); err != nil {
		t.Fatal(err)
	}
	if err := n.Quiesced(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockReportReusesWaiterBuffer is the regression test for the
// watchdog allocation fix: two successive DeadlockReports must share one
// cached waiter-histogram backing array instead of allocating
// NumChannels() int32s per invocation.
func TestDeadlockReportReusesWaiterBuffer(t *testing.T) {
	topo := mesh.New2D(8, 8)
	n := New(topo, DefaultConfig())
	n.Send(0, 63, 512, nil, nil)
	for i := 0; i < 4; i++ {
		n.Step()
	}
	n.DeadlockReport(4)
	buf1 := n.DeadlockWaitersBuf()
	if buf1 == nil {
		t.Fatal("first DeadlockReport left no cached waiter buffer")
	}
	n.DeadlockReport(4)
	buf2 := n.DeadlockWaitersBuf()
	if &buf1[0] != &buf2[0] {
		t.Fatal("successive DeadlockReports did not reuse the waiter buffer")
	}
}
