package recover_test

import (
	"reflect"
	"testing"

	"repro/internal/bmin"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mcastsim"
	"repro/internal/mesh"
	recov "repro/internal/recover"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// FuzzReliableRun drives every setting a reliable multicast takes — the
// jitter seed, the repair policy and the degree cap — over fuzzed
// groups of 3 to 8 members and dead-link fault plans on a 4x4 mesh and a
// 16-node BMIN, and asserts the chaos harness's invariant: the run never
// errors and leaves the fabric quiesced, a position is abandoned exactly
// when the reachability oracle marks it cut off, and the fast and
// reference kernels give the same Result.
func FuzzReliableRun(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(20), uint8(0), uint8(0), false)
	f.Add(uint64(4), uint8(5), uint8(40), uint8(1), uint8(2), false)
	f.Add(uint64(4), uint8(3), uint8(50), uint8(1), uint8(0), false) // abandons 2
	f.Add(uint64(9), uint8(3), uint8(60), uint8(2), uint8(3), true)
	f.Add(uint64(3), uint8(3), uint8(50), uint8(1), uint8(0), true) // abandons 2
	m := mesh.New2D(4, 4)
	bm := bmin.New(16, bmin.AscentStraight)
	f.Fuzz(func(t *testing.T, seed uint64, k, dead, repair, degreeCap uint8, useBMIN bool) {
		var topo wormhole.Topology = m
		less := m.DimOrderLess
		if useBMIN {
			topo, less = bm, bm.LexLess
		}
		const bytes = 256
		addrs := sim.NewRNG(seed).Sample(topo.NumNodes(), 3+int(k%6))
		ch := chain.New(addrs, less)
		root, _ := ch.Index(addrs[0])
		tend := calibrate(t, topo, addrs, bytes)
		fp, err := fault.NewPlan(topo, fault.Spec{DeadFrac: float64(dead%64) / 200, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cfg := recov.Config{
			Sim:       mcastsim.Config{Software: testSoft},
			TEnd:      tend,
			Repair:    recov.RepairPolicy(repair % 3),
			DegreeCap: int(degreeCap % 4),
			Seed:      seed,
		}
		run := func(kernel wormhole.Kernel) recov.Result {
			net := wormhole.New(topo, wormhole.DefaultConfig())
			net.SetKernel(kernel)
			net.SetFaults(fp)
			res, err := recov.Run(net, core.NewOptTable(len(ch), testSoft.Hold.At(bytes), tend), ch, root, bytes, cfg)
			if err != nil {
				t.Fatalf("recovery errored: %v", err)
			}
			if err := net.Quiesced(); err != nil {
				t.Fatalf("fabric not clean after recovery: %v", err)
			}
			return res
		}
		res := run(wormhole.KernelFast)
		for i, reach := range recov.Reachable(topo, fp, ch, root) {
			if reach == (res.Status[i] == mcastsim.StatusAbandoned) {
				t.Fatalf("position %d (node %d): reachable=%v but status=%v\n%+v", i, ch[i], reach, res.Status[i], res)
			}
		}
		if ref := run(wormhole.KernelReference); !reflect.DeepEqual(res, ref) {
			t.Fatalf("kernels diverged:\n fast %+v\n ref  %+v", res, ref)
		}
	})
}
