package wormhole_test

// Differential harness extension for faulted fabrics: the kernel
// equivalence proof of kernel_diff_test.go must keep holding when a
// fault model gates flit motion and the routing layer detours around
// dead channels — including runs that end in an unreachable-destination
// error, where both kernels must observe the error at the same cycle
// with identical statistics.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
	. "repro/internal/wormhole"
)

// TestKernelDifferentialFaults runs seeded random workloads on all four
// fabric families under shared seeded fault plans through both kernels,
// requiring bit-identical statistics, worm records, event streams and
// error text. Each fabric and seed runs three plans:
//
//   - dead + degraded + flaky channels, 40 sends below 200 B, driven to
//     the first error: the gated loop, whose fault-refused flits veto
//     cycle-skipping (exactly the interaction faultStall exists to keep
//     sound);
//   - 2% and 6% dead channels only, 48 sends of up to 8 KB, driven
//     with every stranded worm cancelled (drive's cancelling mode): the
//     check-free loop that parks, under a routing layer that detours and
//     freezes, with parked worms cancelled mid-stream. The torus, which
//     never parks, is their control. The fast kernel runs these twice,
//     with an observer and without one (see diffFaulted).
//
// Odd seeds use the stall-heavy config (long RouterDelay, single-flit
// buffers) for deep cycle-skipping. The suite fails if the dead-only
// runs never cancelled a parked or a crossing-parked worm, never froze
// a crossing-parked one, or never settled a parked worm's event inside
// a clock jump, with or without an observer.
func TestKernelDifferentialFaults(t *testing.T) {
	total, ran := 0, 0
	var counts, quiet parkCounts
	for _, p := range diffPlatforms() {
		for seed := int64(0); seed < 6; seed++ {
			cfg := DefaultConfig()
			if seed%2 == 1 {
				cfg.RouterDelay = 7
				cfg.BufFlits = 1
			}
			planSeed := uint64(seed)*0x9e3779b9 + 11
			t.Run(fmt.Sprintf("%s/seed%d", p.name, seed), func(t *testing.T) {
				plan := fault.MustPlan(p.topo, fault.Spec{
					DeadFrac:     0.02,
					DegradedFrac: 0.05,
					FlakyFrac:    0.05,
					Seed:         planSeed,
				})
				r := rand.New(rand.NewSource(271 + seed*104729))
				sends := randWorkload(r, p.topo.NumNodes(), 40, 200)
				diffFaulted(t, p.topo, cfg, plan, sends, false)
			})
			for _, pct := range []int{2, 6} {
				total++
				t.Run(fmt.Sprintf("%s/dead%d/seed%d", p.name, pct, seed), func(t *testing.T) {
					ran++
					plan := fault.MustPlan(p.topo, fault.Spec{DeadFrac: float64(pct) / 100, Seed: planSeed})
					r := rand.New(rand.NewSource(271 + seed*104729 + int64(pct)))
					sends := randWorkload(r, p.topo.NumNodes(), 48, 8<<10)
					k, q := diffFaulted(t, p.topo, cfg, plan, sends, true)
					counts.add(k)
					quiet.add(q)
				})
			}
		}
	}
	if ran == total && (counts.parkedCancels == 0 || counts.crossingCancels == 0 || counts.frozen == 0 || counts.settled == 0 || quiet.settled == 0) {
		t.Fatalf("closed-form paths of the parking loop went untested on dead-only plans: observed %+v, unobserved %+v", counts, quiet)
	}
}

// diffFaulted drives sends on topo under plan through the reference and
// fast kernels (see drive) and requires identical error text and
// outcomes. A cancelling drive also runs the fast kernel with no
// observer, as the recovery layer does, and compares it with the
// reference run but for the event stream. It returns the closed-form
// paths the observed and the unobserved fast runs took.
func diffFaulted(t *testing.T, topo Topology, cfg Config, plan FaultModel, sends []timedSend, cancelling bool) (observed, unobserved parkCounts) {
	t.Helper()
	ref := New(topo, cfg)
	ref.SetKernel(KernelReference)
	ref.SetFaults(plan)
	want, wantErr, _ := drive(t, ref, sends, driveMode{cancelling: cancelling})

	run := func(mode driveMode) parkCounts {
		fast := New(topo, cfg)
		fast.SetFaults(plan)
		got, gotErr, counts := drive(t, fast, sends, mode)
		if gotErr != wantErr {
			t.Fatalf("error text diverges:\n got %q\nwant %q", gotErr, wantErr)
		}
		if mode.quiet {
			diffSnapshots(t, got, want.unobserved())
		} else {
			diffSnapshots(t, got, want)
		}
		return counts
	}
	observed = run(driveMode{cancelling: cancelling})
	if cancelling {
		unobserved = run(driveMode{cancelling: true, quiet: true})
	}
	return observed, unobserved
}

// TestFaultsWithoutDeadLinksAlwaysDrain pins the liveness half of the
// fault model: degraded and flaky channels stall flits but never strand
// them, so every workload must still drain to an idle, fully released
// fabric with all worms delivered.
func TestFaultsWithoutDeadLinksAlwaysDrain(t *testing.T) {
	for _, p := range diffPlatforms() {
		t.Run(p.name, func(t *testing.T) {
			plan := fault.MustPlan(p.topo, fault.Spec{
				DegradedFrac: 0.15,
				FlakyFrac:    0.15,
				Seed:         7,
			})
			n := New(p.topo, DefaultConfig())
			n.SetFaults(plan)
			r := rand.New(rand.NewSource(99))
			sends := randWorkload(r, p.topo.NumNodes(), 40, 200)
			snap, errText := driveWorkload(t, n, sends)
			if errText != "" {
				t.Fatalf("degraded/flaky-only fabric failed to drain: %s", errText)
			}
			if len(snap.Worms) != len(sends) {
				t.Fatalf("delivered %d of %d worms", len(snap.Worms), len(sends))
			}
		})
	}
}

// retainObserver keeps every completed *Worm alongside a copy of the
// fields it saw at Complete time — the usage pattern of trace.Timeline
// and trace.BlockLog, which index per-worm data by pointer after the
// worm has left the fabric.
type retainObserver struct {
	worms []*Worm
	seen  []wormRecord
}

func (o *retainObserver) Acquire(now int64, w *Worm, c ChannelID)               {}
func (o *retainObserver) Release(now int64, w *Worm, c ChannelID)               {}
func (o *retainObserver) Blocked(now int64, w *Worm, c ChannelID, holder *Worm) {}
func (o *retainObserver) Complete(now int64, w *Worm) {
	o.worms = append(o.worms, w)
	o.seen = append(o.seen, recordWorm(w))
}

// TestRecyclingNeverPoolsUnderObserver is the regression test for the
// pooled-worm aliasing hazard: with SetRecycling(true) and an observer
// installed, completed worms used to be pushed onto the free list even
// though the observer may retain them past Complete — later Sends would
// then rewrite the retained structs in place. Pooling must be suppressed
// while an observer is attached, so every retained pointer keeps the
// exact field values it had at Complete time.
func TestRecyclingNeverPoolsUnderObserver(t *testing.T) {
	n := New(mesh.New2D(8, 8), DefaultConfig())
	n.SetRecycling(true)
	obs := &retainObserver{}
	n.SetObserver(obs)

	r := rand.New(rand.NewSource(5))
	sends := randWorkload(r, 64, 96, 200)
	for _, s := range sends {
		for n.Now() < s.at {
			if n.Active() == 0 {
				n.AdvanceTo(s.at)
				break
			}
			n.StepUntil(s.at)
		}
		n.Send(s.src, s.dst, s.bytes, nil, nil)
	}
	if _, err := n.RunUntilIdle(1 << 22); err != nil {
		t.Fatal(err)
	}
	if len(obs.worms) != len(sends) {
		t.Fatalf("observed %d completions, want %d", len(obs.worms), len(sends))
	}
	for i, w := range obs.worms {
		if now := recordWorm(w); now != obs.seen[i] {
			t.Fatalf("retained worm %d was rewritten after Complete (pooled and reissued):\n at Complete %+v\n now         %+v",
				i, obs.seen[i], now)
		}
	}
	// The same pointer must never complete twice: reissue would mean the
	// free list handed an observed worm back to Send.
	byPtr := make(map[*Worm]int)
	for i, w := range obs.worms {
		if j, dup := byPtr[w]; dup {
			t.Fatalf("worm pointer reissued: completions %d and %d share a struct", j, i)
		}
		byPtr[w] = i
	}
}

// TestSetFaultsPanicsMidFlight pins the installation contract: swapping
// the fault model under in-flight worms would silently invalidate their
// already-routed paths.
func TestSetFaultsPanicsMidFlight(t *testing.T) {
	n := New(mesh.New2D(4, 4), DefaultConfig())
	n.Send(0, 15, 64, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("SetFaults with active worms did not panic")
		}
	}()
	n.SetFaults(fault.MustPlan(n.Topology(), fault.Spec{DeadFrac: 0.1, Seed: 1}))
}

// TestUnreachableErrorNamesTheWorm checks the shape of the diagnostic on
// a partitioned fabric: a plan whose dead set cuts off some destination
// must produce an error naming the worm's endpoints, and DeadlockReport
// must name a stuck worm rather than hang.
func TestUnreachableErrorNamesTheWorm(t *testing.T) {
	topo := mesh.New2D(8, 8)
	// Find a seed whose 6% dead plan strands at least one of the 64
	// single-destination sends; scanning is deterministic, so the first
	// hit is always the same.
	for seed := uint64(1); seed < 64; seed++ {
		plan := fault.MustPlan(topo, fault.Spec{DeadFrac: 0.06, Seed: seed})
		n := New(topo, DefaultConfig())
		n.SetFaults(plan)
		r := rand.New(rand.NewSource(int64(seed)))
		sends := randWorkload(r, topo.NumNodes(), 64, 200)
		_, errText := driveWorkload(t, n, sends)
		if errText == "" {
			continue
		}
		if !strings.Contains(errText, "unreachable") || !strings.Contains(errText, "->") {
			t.Fatalf("unreachable diagnostic missing endpoints: %q", errText)
		}
		report := n.DeadlockReport(8)
		if !strings.Contains(report, "worms in flight") {
			t.Fatalf("DeadlockReport lacks header: %q", report)
		}
		if !strings.Contains(report, "unreachable") {
			t.Fatalf("DeadlockReport does not name the stranded worm: %q", report)
		}
		return
	}
	t.Fatal("no seed in [1,64) produced an unreachable worm; fault plans may be vacuous")
}
