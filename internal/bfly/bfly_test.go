package bfly_test

import (
	"testing"

	. "repro/internal/bfly"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/mcastsim"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("nodes=%d accepted", n)
				}
			}()
			New(n)
		}()
	}
	b := New(64)
	if b.Stages() != 6 || b.NumChannels() != 7*64 {
		t.Fatalf("stages=%d channels=%d", b.Stages(), b.NumChannels())
	}
}

// TestDistanceMatchesPath: Distance counts the channels of every route
// besides its injection and ejection ones.
func TestDistanceMatchesPath(t *testing.T) {
	b := New(16)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if got, want := b.Distance(s, d)+2, len(wormhole.PathChannels(b, wormhole.NodeID(s), wormhole.NodeID(d))); got != want {
				t.Fatalf("Distance(%d, %d)+2 = %d, path holds %d channels", s, d, got, want)
			}
		}
	}
}

// TestPathsTraverseAllStages: every route has exactly stages+1 channels.
func TestPathsTraverseAllStages(t *testing.T) {
	b := New(32)
	for s := 0; s < 32; s++ {
		for d := 0; d < 32; d++ {
			p := wormhole.PathChannels(b, wormhole.NodeID(s), wormhole.NodeID(d))
			if len(p) != b.Stages()+1 {
				t.Fatalf("%d->%d: path length %d, want %d", s, d, len(p), b.Stages()+1)
			}
			if p[0] != b.InjectChannel(wormhole.NodeID(s)) || p[len(p)-1] != b.EjectChannel(wormhole.NodeID(d)) {
				t.Fatalf("%d->%d: endpoints wrong", s, d)
			}
		}
	}
}

// TestDestinationTagColumns: the column at level l has the destination's
// low l bits and the source's high bits.
func TestDestinationTagColumns(t *testing.T) {
	b := New(64)
	src, dst := 0b101101, 0b010010
	p := wormhole.PathChannels(b, wormhole.NodeID(src), wormhole.NodeID(dst))
	for l, c := range p {
		col := int(c) % 64
		mask := (1 << l) - 1
		want := dst&mask | src&^mask
		if col != want {
			t.Fatalf("level %d: column %06b, want %06b", l, col, want)
		}
	}
}

// TestNoContentionFreePartitioning verifies the paper's premise for this
// topology: even restricting to the "safe" direction combinations that
// are channel-disjoint on the mesh, disjoint lexicographic intervals
// collide on the butterfly.
func TestNoContentionFreePartitioning(t *testing.T) {
	b := New(16)
	share := func(a1, d1, a2, d2 int) bool {
		p1 := wormhole.PathChannels(b, wormhole.NodeID(a1), wormhole.NodeID(d1))
		set := map[wormhole.ChannelID]bool{}
		for _, c := range p1[1 : len(p1)-1] {
			set[c] = true
		}
		p2 := wormhole.PathChannels(b, wormhole.NodeID(a2), wormhole.NodeID(d2))
		for _, c := range p2[1 : len(p2)-1] {
			if set[c] {
				return true
			}
		}
		return false
	}
	// Splits aligned to the top address bit stay channel-disjoint (the
	// sub-butterflies are independent)...
	for a1 := 0; a1 < 8; a1++ {
		for d1 := a1 + 1; d1 < 8; d1++ {
			for a2 := 8; a2 < 16; a2++ {
				for d2 := a2 + 1; d2 < 16; d2++ {
					if share(a1, d1, a2, d2) {
						t.Fatalf("aligned halves share channels: %d->%d vs %d->%d", a1, d1, a2, d2)
					}
				}
			}
		}
	}
	// ...but the recursion splits at arbitrary points, and for unaligned
	// splits even both-ascending message pairs (always safe on the mesh)
	// collide.
	found := false
	for split := 1; split < 15 && !found; split++ {
		for a1 := 0; a1 < split && !found; a1++ {
			for d1 := a1 + 1; d1 < split && !found; d1++ {
				for a2 := split; a2 < 16 && !found; a2++ {
					for d2 := a2 + 1; d2 < 16 && !found; d2++ {
						if share(a1, d1, a2, d2) {
							found = true
						}
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("no colliding pair found at any split; the butterfly would be partitionable after all")
	}
}

// TestTemporalOrderingReducesContention is experiment E1's essence: on
// the butterfly, sorting the chain lexicographically reduces (but need
// not eliminate) OPT-tree contention versus a random order.
func TestTemporalOrderingReducesContention(t *testing.T) {
	b := New(64)
	soft := model.Software{
		Send: model.Linear{Fixed: 200, PerByte: 0.15},
		Recv: model.Linear{Fixed: 200, PerByte: 0.15},
		Hold: model.Linear{Fixed: 200, PerByte: 0.15},
	}
	cfg := mcastsim.Config{Software: soft}
	tab := core.NewOptTable(24, soft.Hold.At(4096), 2*soft.Send.At(4096)+600)

	var randBlocked, lexBlocked int64
	for seed := uint64(0); seed < 10; seed++ {
		addrs := sim.NewRNG(seed).Sample(64, 24)
		chRand := chain.Unordered(addrs)
		res, err := mcastsim.Run(wormhole.New(b, wormhole.DefaultConfig()), tab, chRand, 0, 4096, cfg)
		if err != nil {
			t.Fatal(err)
		}
		randBlocked += res.BlockedCycles

		chLex := chain.New(addrs, b.LexLess)
		root, _ := chLex.Index(addrs[0])
		res, err = mcastsim.Run(wormhole.New(b, wormhole.DefaultConfig()), tab, chLex, root, 4096, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lexBlocked += res.BlockedCycles
	}
	if randBlocked == 0 {
		t.Fatal("random-order OPT-tree never contended on the butterfly")
	}
	if lexBlocked >= randBlocked {
		t.Fatalf("lexicographic ordering did not reduce contention: %d vs %d", lexBlocked, randBlocked)
	}
}

func TestDescribeChannel(t *testing.T) {
	b := New(8)
	if s := b.DescribeChannel(b.InjectChannel(2)); s != "inject(2)" {
		t.Errorf("inject described as %q", s)
	}
	if s := b.DescribeChannel(b.EjectChannel(2)); s != "eject(2)" {
		t.Errorf("eject described as %q", s)
	}
	if s := b.DescribeChannel(wormhole.ChannelID(-2)); s != "none" {
		t.Errorf("invalid described as %q", s)
	}
}

func TestLexLess(t *testing.T) {
	b := New(8)
	if !b.LexLess(1, 2) || b.LexLess(2, 1) {
		t.Fatal("LexLess broken")
	}
}
