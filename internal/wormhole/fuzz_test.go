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
		sends = append(sends, timedSend{at: at, src: src, dst: dst, bytes: int(data[i+2])})
	}
	return sends
}

// FuzzWormholeKernel checks, for every fuzz-derived workload: the fabric
// drains within the deadline, quiesces with every channel released (the
// live windows checked after every step on the way), flit
// conservation holds (injected == consumed == the closed form
// flits×(hops+1) summed over worms), and the fast kernel's full
// observable outcome equals the reference kernel's. It does so on three
// fabrics, one per flit-motion loop of the fast kernel: a healthy 4×4
// mesh (the check-free loop), a 4×4 torus whose virtual channels share
// physical links, and the 4×4 mesh under a fault plan of degraded and
// flaky channels seeded from the input (both the gated loop; with no
// dead channel every workload still drains).
func FuzzWormholeKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 8, 0, 1, 5, 8, 0, 2, 5, 8, 0, 3, 5, 8, 0})
	f.Add([]byte{0, 15, 255, 0, 15, 0, 255, 0, 5, 10, 0, 255, 10, 5, 1, 201})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		b := make([]byte, 4*(4+r.Intn(24)))
		r.Read(b)
		f.Add(b)
	}

	topo := mesh.New2D(4, 4)
	ring := torus.New2D(4, 4)
	cfg := DefaultConfig()
	cfg.RouterDelay = 2

	f.Fuzz(func(t *testing.T, data []byte) {
		sends := decodeSends(data, topo.NumNodes())
		fuzzLeg(t, "mesh", topo, nil, cfg, sends)
		fuzzLeg(t, "torus", ring, nil, cfg, sends)
		seed := uint64(len(data))
		for _, b := range data {
			seed = seed*131 + uint64(b)
		}
		plan := fault.MustPlan(topo, fault.Spec{DegradedFrac: 0.15, FlakyFrac: 0.15, Seed: seed})
		fuzzLeg(t, "faulted mesh", topo, plan, cfg, sends)
	})
}

// fuzzLeg runs sends on topo (under plan, when non-nil) through the fast
// and reference kernels and requires every worm delivered with flits
// conserved and the two outcomes identical.
func fuzzLeg(t *testing.T, name string, topo Topology, plan FaultModel, cfg Config, sends []timedSend) {
	t.Helper()
	run := func(k Kernel) runSnapshot {
		n := New(topo, cfg)
		n.SetKernel(k)
		if plan != nil {
			n.SetFaults(plan)
		}
		return runWorkload(t, n, sends) // fails the test unless the fabric drains and quiesces
	}
	got, want := run(KernelFast), run(KernelReference)

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
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: fast kernel diverges from reference:", name)
		diffSnapshots(t, got, want)
	}
}
