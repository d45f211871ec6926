package recover_test

// The chaos harness: random seeded fault plans on all four fabric
// families, driven through full recovery. The invariant under test is
// the tentpole's promise — every destination the faulted topology can
// still reach is delivered — plus the determinism contract: identical
// results on the fast and reference kernels and on reruns of the same
// seed, bit for bit.

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
	"repro/internal/mesh"
	recov "repro/internal/recover"
	"repro/internal/sim"
	"repro/internal/torus"
	"repro/internal/wormhole"
)

type chaosPlatform struct {
	name string
	topo wormhole.Topology
	less func(a, b int) bool // nil: unordered chain
}

func chaosPlatforms() []chaosPlatform {
	m := mesh.New2D(8, 8)
	tr := torus.New2D(8, 8)
	bm := bmin.New(64, bmin.AscentStraight)
	bf := bfly.New(64)
	return []chaosPlatform{
		{"mesh", m, m.DimOrderLess}, // dim-order chain + FaultRouter detours
		{"torus", tr, tr.DimOrderLess},
		{"bmin", bm, bm.LexLess}, // lex chain + alternate-ascent FaultRouter
		{"bfly", bf, bf.LexLess}, // no FaultRouter: dead-filtered routing
	}
}

// chaosRun executes one recovery run and returns the result; fatal on
// configuration errors (the run itself must never error on a fault).
func chaosRun(t *testing.T, p chaosPlatform, fp *fault.Plan, ch chain.Chain, root, bytes int,
	tend int64, kernel wormhole.Kernel, seed uint64) mcastsim.ReliableResult {
	t.Helper()
	net := wormhole.New(p.topo, wormhole.DefaultConfig())
	net.SetKernel(kernel)
	net.SetFaults(fp)
	thold := testSoft.Hold.At(bytes)
	tab := core.NewOptTable(len(ch), thold, tend)
	res, err := mcastsim.RunReliable(net, tab, ch, root, bytes, mcastsim.ReliableConfig{
		Sim:  mcastsim.Config{Software: testSoft},
		TEnd: tend,
		Seed: seed,
	})
	if err != nil {
		t.Fatalf("%s seed %d: recovery errored: %v", p.name, seed, err)
	}
	if err := net.Quiesced(); err != nil {
		t.Fatalf("%s seed %d: fabric not clean after recovery: %v", p.name, seed, err)
	}
	return res
}

// TestChaosRecoveryInvariant: for every seeded fault plan, every
// oracle-reachable destination is delivered; abandoned destinations are
// provably cut off; and the whole Result — delivery times, statuses and
// overhead counters — is bit-identical across kernels and reruns.
func TestChaosRecoveryInvariant(t *testing.T) {
	const (
		k     = 10
		bytes = 512
	)
	specs := []fault.Spec{
		{DeadFrac: 0.04},
		{DeadFrac: 0.12},
		{DeadFrac: 0.05, FlakyFrac: 0.10, DegradedFrac: 0.10},
	}
	sawAbandon, sawRecover := false, false
	for _, p := range chaosPlatforms() {
		for seed := uint64(1); seed <= 3; seed++ {
			addrs := sim.NewRNG(seed*77).Sample(p.topo.NumNodes(), k)
			ch := chain.New(addrs, p.less)
			root, _ := ch.Index(addrs[0])
			tend := calibrate(t, p.topo, addrs, bytes)
			for si, spec := range specs {
				spec.Seed = seed
				fp, err := fault.NewPlan(p.topo, spec)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/spec%d/seed%d", p.name, si, seed)

				res := chaosRun(t, p, fp, ch, root, bytes, tend, wormhole.KernelFast, seed)
				oracle := recov.Reachable(p.topo, fp, ch, root)
				for i, reach := range oracle {
					if reach && res.Deliveries[i] < 0 {
						t.Fatalf("%s: position %d (node %d) is reachable but was abandoned\n%+v",
							name, i, ch[i], res)
					}
					if reach == (res.Status[i] == mcastsim.StatusAbandoned) {
						t.Fatalf("%s: position %d: reachable=%v but status=%v",
							name, i, reach, res.Status[i])
					}
				}
				if res.Abandoned > 0 {
					sawAbandon = true
				}
				if res.Overhead.Retransmits > 0 || res.Overhead.Repairs > 0 {
					sawRecover = true
				}

				again := chaosRun(t, p, fp, ch, root, bytes, tend, wormhole.KernelFast, seed)
				if !reflect.DeepEqual(res, again) {
					t.Fatalf("%s: rerun diverged:\n 1st %+v\n 2nd %+v", name, res, again)
				}
				ref := chaosRun(t, p, fp, ch, root, bytes, tend, wormhole.KernelReference, seed)
				if !reflect.DeepEqual(res, ref) {
					t.Fatalf("%s: kernels diverged:\n fast %+v\n ref  %+v", name, res, ref)
				}
			}
		}
	}
	// The sweep must actually exercise recovery, not vacuously pass on
	// healthy-looking plans.
	if !sawRecover {
		t.Fatal("no fault plan triggered a retransmit or repair; chaos coverage is vacuous")
	}
	if !sawAbandon {
		t.Log("note: no plan partitioned a destination (abandonment untested this sweep)")
	}
}

// releaseLog records every channel release with its cycle: the moment a
// cancelled worm leaves the fabric.
type releaseLog struct{ events []string }

func (l *releaseLog) Acquire(int64, *wormhole.Worm, wormhole.ChannelID) {}
func (l *releaseLog) Release(now int64, w *wormhole.Worm, c wormhole.ChannelID) {
	l.events = append(l.events, fmt.Sprintf("t=%d w=%d c=%d", now, w.ID, c))
}
func (l *releaseLog) Blocked(int64, *wormhole.Worm, wormhole.ChannelID, *wormhole.Worm) {}
func (l *releaseLog) Complete(int64, *wormhole.Worm)                                    {}

// TestFrozenWormsCancelledInTheirCycle: the engine cancels every worm
// the fault layer freezes in the cycle it froze. Under the reference
// kernel StepUntil returns after every cycle, so Check runs in each; the
// fast kernel's StepUntil returns in the cycle a worm froze. On these
// seeds no send reaches its default deadline (the runs are the same
// with deadlines a thousand times t_end), so every cancel reclaims a
// frozen worm, and the two kernels must release every channel in the
// same cycle. The seeds must freeze some worm.
func TestFrozenWormsCancelledInTheirCycle(t *testing.T) {
	m := mesh.New2D(8, 8)
	const bytes = 512
	ch, root := meshGroup(m, 5, 24)
	tend := calibrate(t, m, []int{ch[0], ch[len(ch)-1]}, bytes)
	tab := core.NewOptTable(len(ch), testSoft.Hold.At(bytes), tend)
	cancelled := int64(0)
	for seed := uint64(1); seed <= 8; seed++ {
		plan := fault.MustPlan(m, fault.Spec{DeadFrac: 0.06, Seed: seed})
		run := func(k wormhole.Kernel) ([]string, wormhole.Stats) {
			net := wormhole.New(m, wormhole.DefaultConfig())
			net.SetKernel(k)
			net.SetFaults(plan)
			log := &releaseLog{}
			net.SetObserver(log)
			_, err := mcastsim.RunReliable(net, tab, ch, root, bytes, mcastsim.ReliableConfig{
				Sim: mcastsim.Config{Software: testSoft}, TEnd: tend, Seed: seed,
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return log.events, net.Stats()
		}
		fast, fs := run(wormhole.KernelFast)
		ref, rs := run(wormhole.KernelReference)
		if fs != rs || !reflect.DeepEqual(fast, ref) {
			t.Fatalf("seed %d: kernels release channels differently (cancelled %d vs %d)", seed, fs.Cancelled, rs.Cancelled)
		}
		cancelled += fs.Cancelled
	}
	if cancelled == 0 {
		t.Fatal("no worm froze; the test is vacuous")
	}
}
