package collective_test

import (
	"strings"
	"testing"

	"repro/internal/chain"
	. "repro/internal/collective"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mcastsim"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

var soft = model.Software{
	Send: model.Linear{Fixed: 200, PerByte: 0.15},
	Recv: model.Linear{Fixed: 200, PerByte: 0.15},
	Hold: model.Linear{Fixed: 200, PerByte: 0.15},
}

func meshChainOf(m *mesh.Mesh, seed uint64, k int) chain.Chain {
	addrs := sim.NewRNG(seed).Sample(m.NumNodes(), k)
	return chain.New(addrs, m.DimOrderLess)
}

// TestBroadcastCompletes: every node completes; message count is p^2-1
// (p-1 scatter sends + p(p-1) ring sends).
func TestBroadcastCompletes(t *testing.T) {
	m := mesh.New2D(8, 8)
	for _, p := range []int{2, 3, 8, 16} {
		ch := meshChainOf(m, uint64(p), p)
		res, err := ScatterAllgather(wormhole.New(m, wormhole.DefaultConfig()), ch, 8192, mcastsim.Config{Software: soft})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if want := int64(p*p - 1); res.Worms != want {
			t.Fatalf("p=%d: %d worms, want %d", p, res.Worms, want)
		}
		if res.Completions[0] != 0 {
			t.Fatalf("p=%d: root completion %d", p, res.Completions[0])
		}
		for i := 1; i < p; i++ {
			if res.Completions[i] <= 0 {
				t.Fatalf("p=%d: node %d completion %d", p, i, res.Completions[i])
			}
		}
	}
}

// TestSingleNode: a one-node broadcast is free.
func TestSingleNode(t *testing.T) {
	m := mesh.New2D(4, 4)
	res, err := ScatterAllgather(wormhole.New(m, wormhole.DefaultConfig()), chain.Chain{5}, 4096, mcastsim.Config{Software: soft})
	if err != nil || res.Latency != 0 || res.Worms != 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

// TestLargeMessageBeatsTreeBroadcast: the paper's introduction in
// numbers — for a full-machine broadcast of a large message, the
// architecture-specific scatter/all-gather beats even the optimal
// multicast tree (bandwidth beats latency), while for a small message
// the tree wins by a wide margin.
func TestCrossover(t *testing.T) {
	m := mesh.New2D(8, 8)
	const p = 64
	addrs := make([]int, p)
	for i := range addrs {
		addrs[i] = i
	}
	ch := chain.New(addrs, m.DimOrderLess)
	cfg := mcastsim.Config{Software: soft}

	run := func(bytes int) (tree, sc int64) {
		tend, err := mcastsim.Unicast(wormhole.New(m, wormhole.DefaultConfig()), 0, 63, bytes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tab := core.NewOptTable(p, soft.Hold.At(bytes), tend)
		root, _ := ch.Index(addrs[0])
		tr, err := mcastsim.Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, bytes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		scr, err := ScatterAllgather(wormhole.New(m, wormhole.DefaultConfig()), ch, bytes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Latency, scr.Latency
	}

	treeSmall, scSmall := run(256)
	if scSmall <= treeSmall {
		t.Fatalf("small message: scatter-collect (%d) should lose to the OPT tree (%d)", scSmall, treeSmall)
	}
	treeBig, scBig := run(512 * 1024)
	if scBig >= treeBig {
		t.Fatalf("large message: scatter-collect (%d) should beat the OPT tree (%d)", scBig, treeBig)
	}
}

// TestChunkAccounting: chunk sizes sum to the message and differ by at
// most one byte.
func TestChunkAccounting(t *testing.T) {
	m := mesh.New2D(4, 4)
	ch := meshChainOf(m, 9, 7)
	// Exercise a size not divisible by p and smaller than p.
	for _, bytes := range []int{3, 7, 100, 4097} {
		res, err := ScatterAllgather(wormhole.New(m, wormhole.DefaultConfig()), ch, bytes, mcastsim.Config{Software: soft})
		if err != nil {
			t.Fatalf("bytes=%d: %v", bytes, err)
		}
		if res.Latency <= 0 {
			t.Fatalf("bytes=%d: latency %d", bytes, res.Latency)
		}
	}
}

// TestValidation: bad inputs are rejected.
func TestValidation(t *testing.T) {
	m := mesh.New2D(4, 4)
	net := wormhole.New(m, wormhole.DefaultConfig())
	cfg := mcastsim.Config{Software: soft}
	if _, err := ScatterAllgather(net, chain.Chain{1, 1}, 8, cfg); err == nil {
		t.Error("duplicate chain accepted")
	}
	if _, err := ScatterAllgather(net, chain.Chain{1, 99}, 8, cfg); err == nil {
		t.Error("out-of-fabric address accepted")
	}
	if _, err := ScatterAllgather(net, chain.Chain{1, 2}, -1, cfg); err == nil {
		t.Error("negative size accepted")
	}
	busy := wormhole.New(m, wormhole.DefaultConfig())
	busy.Send(0, 1, 64, nil, nil)
	if _, err := ScatterAllgather(busy, chain.Chain{1, 2}, 8, cfg); err == nil {
		t.Error("busy fabric accepted")
	}
}

// TestDeterministic: identical runs.
func TestDeterministic(t *testing.T) {
	m := mesh.New2D(8, 8)
	ch := meshChainOf(m, 21, 16)
	run := func() Result {
		res, err := ScatterAllgather(wormhole.New(m, wormhole.DefaultConfig()), ch, 16384, mcastsim.Config{Software: soft})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Latency != b.Latency || a.BlockedCycles != b.BlockedCycles {
		t.Fatal("scatter-allgather not deterministic")
	}
}

// TestFaultedBroadcastFailsAtTheFreeze: when dead links cut a node off,
// the broadcast must stop at the freeze with the unreachable cause and
// the deadlock report, not step on to its multi-million-cycle deadline
// and report only that it did not finish.
func TestFaultedBroadcastFailsAtTheFreeze(t *testing.T) {
	m := mesh.New2D(8, 8)
	ch := meshChainOf(m, 16, 16)
	for seed := uint64(1); seed <= 3; seed++ {
		net := wormhole.New(m, wormhole.DefaultConfig())
		net.SetFaults(fault.MustPlan(m, fault.Spec{DeadFrac: 0.2, Seed: seed}))
		_, err := ScatterAllgather(net, ch, 8192, mcastsim.Config{Software: soft})
		if err == nil {
			t.Fatalf("seed %d: broadcast over 20%% dead links completed", seed)
		}
		for _, want := range []string{"collective: ", "unreachable", "worms in flight"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("seed %d: error lacks %q: %v", seed, want, err)
			}
		}
		if now := net.Now(); now > 100_000 {
			t.Fatalf("seed %d: error surfaced at cycle %d, long after the freeze", seed, now)
		}
	}
}
