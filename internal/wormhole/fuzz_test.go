package wormhole_test

// Native Go fuzzing of the simulator kernels: the fuzzer mutates a raw
// byte string that decodes into a timed send sequence, and every input
// must satisfy the conservation invariants on both kernels plus
// fast == reference equivalence. `go test -fuzz=FuzzWormholeKernel
// ./internal/wormhole` explores further; the seed corpus below runs on
// every plain `go test`.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bmin"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/torus"
	. "repro/internal/wormhole"
)

// decodeSends turns fuzz bytes into a workload: consecutive 4-byte
// tuples (src, dst, size, gap) on an n-node fabric. The decoding is
// total — every input maps to a valid workload — so the fuzzer never
// wastes executions on rejected inputs.
func decodeSends(data []byte, nodes int) []timedSend {
	var sends []timedSend
	at := int64(0)
	for i := 0; i+4 <= len(data) && len(sends) < 64; i += 4 {
		src := NodeID(int(data[i]) % nodes)
		dst := NodeID(int(data[i+1]) % nodes)
		if dst == src {
			dst = (dst + 1) % NodeID(nodes)
		}
		// Gap byte: low values cluster sends into contention, high bits
		// open software-style gaps that exercise cycle-skipping.
		gap := int64(data[i+3])
		if gap >= 200 {
			gap = (gap - 199) * 97
		}
		at += gap
		// Size byte: bytes as is, except that the top 16 values map to
		// 512 B–8 KB worms, whose bodies stream in closed form for
		// hundreds of cycles.
		size := int(data[i+2])
		if size >= 240 {
			size = (size - 239) * 512
		}
		sends = append(sends, timedSend{at: at, src: src, dst: dst, bytes: size})
	}
	return sends
}

// FuzzWormholeKernel checks, for every fuzz-derived workload and fabric
// config (RouterDelay 0–3 and BufFlits 1–4, taken from two input bytes,
// so that a crossing worm's period, and whether it parks at all, vary
// with the input): the fabric drains within the deadline, quiesces with
// every channel released (the live windows checked after every step on
// the way), flit conservation holds (injected == consumed == the closed form
// flits×(hops+1) summed over worms), the fast kernel's full observable
// outcome equals the reference kernel's, and at every StepUntil return
// of the fast kernel its last-move cycle and frozen count equal the
// reference kernel's at that cycle. The observed fast runs keep their
// channel owners hashed and the reference runs flat, so an owner-set
// fault shows as a divergence. It does so on three
// fabrics, one per flit-motion loop of the fast kernel: a healthy 4×4
// mesh (the check-free loop), a 4×4 torus whose virtual channels share
// physical links, and the 4×4 mesh under a fault plan of degraded and
// flaky channels seeded from the input (both the gated loop; with no
// dead channel every workload still drains). A fourth leg runs a healthy
// 16-node BMIN with straight ascent, the check-free loop on the other
// fabric whose routes the fast kernel plans at Send. A fifth runs the
// 4×4 mesh under a plan of dead channels only, seeded from the input:
// the check-free loop again, now under a routing layer that detours and
// freezes, where a worm whose route holds a dead channel is not planned.
// Dead links may strand worms, so that leg cancels them as it goes
// (drive's cancelling mode) and compares the two kernels' outcomes and
// error text without requiring every worm delivered. The healthy mesh,
// BMIN and dead-only legs also run the fast kernel with no observer (as
// the experiment sweeps and delivery layers run it; with recycling on
// the healthy fabrics), whose clock jumps settle parked worms' events
// worm by worm, and compare it with the reference run but for the event
// stream. TestFuzzLegsSettleInJumps checks, on a seed input, that those
// legs settle events inside jumps and take planned hops, that the
// dead-only leg leaves a worm unplanned, and that the hashed owner
// tables grow.
func FuzzWormholeKernel(f *testing.F) {
	// The first eight seeds run DefaultConfig's RouterDelay 1 with
	// BufFlits 2.
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Add([]byte{0, 5, 8, 0, 1, 5, 8, 0, 2, 5, 8, 0, 3, 5, 8, 0}, uint8(1), uint8(1))
	f.Add([]byte{0, 15, 255, 0, 15, 0, 255, 0, 5, 10, 0, 255, 10, 5, 1, 201}, uint8(1), uint8(1))
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		b := make([]byte, 4*(4+r.Intn(24)))
		r.Read(b)
		f.Add(b, uint8(1), uint8(1))
	}
	f.Add(fuzzJumpSeed, uint8(1), uint8(1))
	// The multi-KB seed runs under every config.
	for rd := uint8(0); rd < 4; rd++ {
		for buf := uint8(0); buf < 4; buf++ {
			f.Add(fuzzLongSeed, rd, buf)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, rd, buf uint8) { fuzzKernel(t, data, rd, buf) })
}

// fuzzLongSeed is FuzzWormholeKernel's multi-KB seed input: an 8 KB worm
// 0->15 streams while a 5.5 KB worm 3->12 crosses its routers and a
// short worm 1->15 blocks behind it; after a long gap a short worm and
// two more multi-KB worms follow.
var fuzzLongSeed = []byte{0, 15, 255, 0, 3, 12, 250, 0, 1, 15, 10, 3, 12, 3, 40, 220, 5, 10, 245, 2, 6, 9, 248, 1}

// fuzzJumpSeed is FuzzWormholeKernel's seed input whose clock jumps
// settle parked worms' events: 8 KB worms 0->3 and 12->15 stream along
// rows 0 and 3, a 5 B worm 4->7 is sent at cycle 970 while they inject,
// and a 5 B worm 8->11 at cycle 1028, while they drain, so the jump to
// that send passes their ends of injection and releases.
var fuzzJumpSeed = []byte{0, 3, 255, 0, 12, 15, 255, 0, 4, 7, 5, 209, 8, 11, 5, 58}

// fuzzKernel is FuzzWormholeKernel's body. It returns the closed-form
// paths the unobserved fast runs of the healthy-mesh, BMIN and dead-only
// legs took, and whether the hashed owner table of some leg's observed
// fast run grew.
func fuzzKernel(t *testing.T, data []byte, rd, buf uint8) (mesh4, bmin16, dead4 parkCounts, grew bool) {
	topo := mesh.New2D(4, 4)
	cfg := DefaultConfig()
	cfg.RouterDelay = int64(rd % 4)
	cfg.BufFlits = 1 + int(buf%4)
	sends := decodeSends(data, topo.NumNodes())
	mesh4, grewMesh := fuzzLeg(t, "mesh", topo, nil, cfg, sends, true)
	_, grewTorus := fuzzLeg(t, "torus", torus.New2D(4, 4), nil, cfg, sends, false)
	bmin16, grewBMIN := fuzzLeg(t, "bmin", bmin.New(16, bmin.AscentStraight), nil, cfg, sends, true)
	seed := uint64(len(data))
	for _, b := range data {
		seed = seed*131 + uint64(b)
	}
	plan := fault.MustPlan(topo, fault.Spec{DegradedFrac: 0.15, FlakyFrac: 0.15, Seed: seed})
	_, grewFaulted := fuzzLeg(t, "faulted mesh", topo, plan, cfg, sends, false)
	dead := fault.MustPlan(topo, fault.Spec{DeadFrac: 0.1, Seed: seed})
	observed, dead4 := diffFaulted(t, topo, cfg, dead, sends, true)
	return mesh4, bmin16, dead4, grewMesh || grewTorus || grewBMIN || grewFaulted || observed.grew > 0
}

// TestFuzzLegsSettleInJumps runs FuzzWormholeKernel's body on
// fuzzJumpSeed under every RouterDelay 0–3 × BufFlits 1–4 and fails
// unless, under the configs where crossing worms park (BufFlits >
// RouterDelay), the unobserved fast runs of the healthy-mesh and of the
// dead-only leg each settled a parked worm's event inside a clock jump:
// without that, those legs would not test the settlement path the
// experiment sweeps and delivery layers run. It also fails unless the
// unobserved runs of the healthy mesh and the dead-only leg under those
// configs, and of the BMIN under all, each took a planned hop, unless
// the dead-only leg left some worm unplanned for a dead channel on its
// route, and unless some observed run's hashed owner table grew past
// its first size, so that the fuzzer reaches the hashed form's growth.
func TestFuzzLegsSettleInJumps(t *testing.T) {
	var mesh4, bmin16, dead4 parkCounts
	grew := false
	for rd := uint8(0); rd < 4; rd++ {
		for buf := uint8(0); buf < 4; buf++ {
			m, b, d, g := fuzzKernel(t, fuzzJumpSeed, rd, buf)
			grew = grew || g
			bmin16.add(b)
			if buf+1 > rd {
				mesh4.add(m)
				dead4.add(d)
			}
		}
	}
	if mesh4.settled == 0 || dead4.settled == 0 {
		t.Fatalf("no event settled inside a jump: healthy mesh %+v, dead-only %+v", mesh4, dead4)
	}
	if mesh4.planned == 0 || bmin16.planned == 0 || dead4.planned == 0 || dead4.unplanned == 0 {
		t.Fatalf("planned routes went untested: healthy mesh %+v, BMIN %+v, dead-only %+v", mesh4, bmin16, dead4)
	}
	if !grew {
		t.Fatal("no hashed owner table grew past its first size")
	}
}

// fuzzLeg runs sends on topo (under plan, when non-nil) through the fast
// kernel on hashed owners and the reference kernel on flat ones, and
// requires every worm delivered with flits conserved and the two
// outcomes identical; grew reports whether the fast run's hashed table
// grew. With unobserved set it also runs the fast kernel with no
// observer and recycling on, on flat owners, compares it with the
// reference run but for the event stream, and returns its closed-form
// paths.
func fuzzLeg(t *testing.T, name string, topo Topology, plan FaultModel, cfg Config, sends []timedSend, unobserved bool) (quiet parkCounts, grew bool) {
	t.Helper()
	run := func(n *Network, k Kernel) runSnapshot {
		n.SetKernel(k)
		if plan != nil {
			n.SetFaults(plan)
		}
		return runWorkload(t, n, sends) // fails the test unless the fabric drains and quiesces
	}
	fast := NewHashed(topo, cfg)
	got, want := run(fast, KernelFast), run(New(topo, cfg), KernelReference)
	grew = fast.HashedGrew()

	if len(got.Worms) != len(sends) {
		t.Fatalf("%s: %d of %d worms completed", name, len(got.Worms), len(sends))
	}
	var wantHops int64
	for _, w := range got.Worms {
		if w.Flits != cfg.Flits(w.Bytes) {
			t.Fatalf("%s: worm %d carried %d flits, want %d for %d bytes", name, w.ID, w.Flits, cfg.Flits(w.Bytes), w.Bytes)
		}
		// Injection + every inter-channel move + consumption: each of
		// the worm's flits crosses each of its pathLen channels once
		// and is consumed once. Equality with the kernel's FlitHops
		// counter says every injected flit was consumed exactly once.
		wantHops += int64(w.Flits) * int64(w.PathLen+1)
	}
	if got.Stats.FlitHops != wantHops {
		t.Fatalf("%s: flit conservation violated: %d flit-hops counted, %d implied by completed worms",
			name, got.Stats.FlitHops, wantHops)
	}
	if !reflect.DeepEqual(got.outcome(), want.outcome()) {
		t.Errorf("%s: fast kernel diverges from reference:", name)
	}
	diffSnapshots(t, got, want)
	if !unobserved {
		return parkCounts{}, grew
	}
	n := New(topo, cfg)
	n.SetRecycling(true)
	got, quiet = runCounted(t, n, sends, driveMode{quiet: true})
	diffSnapshots(t, got, want.unobserved())
	return quiet, grew
}
