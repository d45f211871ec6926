package wormhole_test

// Unit coverage for the kernel-scheduling machinery: the Blocked blame
// rule, the Quiesced error paths, the kernel/recycling guard rails, and
// the steady-state allocation contract of the pooled free list.

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bmin"
	"repro/internal/mesh"
	. "repro/internal/wormhole"
)

// blameTopo is a hand-built 4-node fabric that pins the Blocked blame
// rule. Channels 0–3 are injection, 4–7 ejection; channels 8 ("X") and 9
// ("Y") both lead to node 3's router. Node 1 routes via X only, node 2
// via Y only, and node 0 adaptively via [Y, X] — preferring Y — so a worm
// from node 0 can find its preferred candidate held by a *younger* worm
// while the alternative is held by an older one.
type blameTopo struct{}

func (blameTopo) NumNodes() int                    { return 4 }
func (blameTopo) NumChannels() int                 { return 10 }
func (blameTopo) InjectChannel(n NodeID) ChannelID { return ChannelID(n) }
func (blameTopo) EjectChannel(n NodeID) ChannelID  { return ChannelID(4 + n) }
func (blameTopo) DescribeChannel(c ChannelID) string {
	return fmt.Sprintf("c%d", c)
}

func (blameTopo) Route(cur ChannelID, src, dst NodeID, buf []ChannelID) []ChannelID {
	switch cur {
	case 0:
		return append(buf, 9, 8)
	case 1:
		return append(buf, 8)
	case 2:
		return append(buf, 9)
	case 8, 9:
		return append(buf, ChannelID(4+dst))
	}
	panic(fmt.Sprintf("blameTopo: unexpected Route from c%d", cur))
}

// TestBlockedBlameRule sends three worms to node 3: w0 (node 1) takes X,
// w1 (node 2) takes Y, then w2 (node 0) finds both candidates owned —
// its preference Y by the younger w1, the alternative X by the older w0.
// Under oldest-first arbitration the oldest holder heads the blocking
// chain, so every Blocked report for w2 must name X and w0 (the previous
// rule reported the first preference's holder, i.e. Y and w1). Both
// kernels must apply the same rule.
func TestBlockedBlameRule(t *testing.T) {
	for _, k := range []Kernel{KernelFast, KernelReference} {
		t.Run(fmt.Sprintf("kernel%d", k), func(t *testing.T) {
			n := New(blameTopo{}, DefaultConfig())
			n.SetKernel(k)
			log := &eventLog{}
			n.SetObserver(log)
			n.Send(1, 3, 400, nil, nil) // w0: acquires X, then the eject channel
			n.Send(2, 3, 400, nil, nil) // w1: acquires Y, blocks on the eject channel
			w2 := n.Send(0, 3, 40, nil, nil)
			if _, err := n.RunUntilIdle(1 << 16); err != nil {
				t.Fatal(err)
			}
			if w2.BlockedCycles == 0 {
				t.Fatal("w2 never blocked; the scenario did not exercise multi-candidate blame")
			}
			// w2 blocks in two phases: first at its router with both
			// candidates owned (the multi-candidate reports under test,
			// naming X or Y), later on node 3's single-candidate eject
			// channel while the pipeline drains (c=7, not at issue).
			routerBlames := 0
			for _, e := range log.events {
				if !strings.Contains(e, "blk w=2") || strings.Contains(e, "c=7") {
					continue
				}
				routerBlames++
				if !strings.HasSuffix(e, "c=8 hold=0") {
					t.Fatalf("w2 blame %q: want channel X (c=8) held by the oldest worm (w0)", e)
				}
			}
			if routerBlames == 0 {
				t.Fatal("no multi-candidate Blocked reports recorded for w2")
			}
		})
	}
}

func TestQuiescedActiveWorm(t *testing.T) {
	n := newMeshNet(4, 4, DefaultConfig())
	n.Send(0, 5, 64, nil, nil)
	err := n.Quiesced()
	if err == nil || !strings.Contains(err.Error(), "worms still active") {
		t.Fatalf("Quiesced with an in-flight worm: %v", err)
	}
	if _, err := n.RunUntilIdle(1 << 16); err != nil {
		t.Fatal(err)
	}
	if err := n.Quiesced(); err != nil {
		t.Fatalf("Quiesced after drain: %v", err)
	}
}

// TestQuiescedLeakedChannel: on both forms of the owner set, Quiesced
// names the lowest leaked channel and its owner, whatever order the
// channels leaked in, and passes once they are cleared.
func TestQuiescedLeakedChannel(t *testing.T) {
	m := mesh.New2D(4, 4)
	for _, n := range []*Network{New(m, DefaultConfig()), NewHashed(m, DefaultConfig())} {
		n.ForceOwner(40, &Worm{ID: 43})
		n.ForceOwner(5, &Worm{ID: 42})
		err := n.Quiesced()
		want := fmt.Sprintf("channel %s still owned by worm 42", m.DescribeChannel(5))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Quiesced with leaked channels 40 and 5 (hashed %v): %v, want %q", n.Hashed(), err, want)
		}
		n.ForceOwner(5, nil)
		n.ForceOwner(40, nil)
		if err := n.Quiesced(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSetKernelActivePanics(t *testing.T) {
	n := newMeshNet(4, 4, DefaultConfig())
	n.Send(0, 5, 64, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("SetKernel with active worms did not panic")
		}
	}()
	n.SetKernel(KernelReference)
}

func TestStepUntilPastLimitPanics(t *testing.T) {
	n := newMeshNet(4, 4, DefaultConfig())
	n.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("StepUntil at/before now did not panic")
		}
	}()
	n.StepUntil(n.Now())
}

// TestRunUntilIdleTimeoutMatchesReference pins that the fast kernel's
// cycle-skipping reports a deadlock timeout at exactly the same cycle
// count as stepping through the stall would: a worm parked behind a
// never-released channel exhausts precisely maxCycles.
func TestRunUntilIdleTimeoutMatchesReference(t *testing.T) {
	run := func(k Kernel) (int64, int64, error) {
		n := New(blameTopo{}, DefaultConfig())
		n.SetKernel(k)
		n.ForceOwner(9, &Worm{ID: 99}) // node 2's only route, held forever
		w := n.Send(2, 3, 16, nil, nil)
		stepped, err := n.RunUntilIdle(500)
		return stepped, w.BlockedCycles, err
	}
	fs, fb, ferr := run(KernelFast)
	rs, rb, rerr := run(KernelReference)
	if ferr == nil || rerr == nil {
		t.Fatalf("deadlocked run did not time out: fast=%v ref=%v", ferr, rerr)
	}
	if fs != rs || fb != rb {
		t.Fatalf("timeout accounting diverges: fast stepped %d (blocked %d), reference %d (blocked %d)", fs, fb, rs, rb)
	}
}

// TestRecyclingSteadyStateAllocs is the pooling contract: once the free
// list is primed, a Send + drain round trip performs zero heap
// allocations, and recycling does not perturb IDs or timings.
func TestRecyclingSteadyStateAllocs(t *testing.T) {
	n := newMeshNet(8, 8, DefaultConfig())
	n.SetRecycling(true)
	drain := func() {
		if _, err := n.RunUntilIdle(1 << 16); err != nil {
			t.Fatal(err)
		}
	}
	// Prime the pool (first round allocates the worm and its slices).
	n.Send(0, 63, 128, nil, nil)
	drain()
	allocs := testing.AllocsPerRun(50, func() {
		n.Send(0, 63, 128, nil, nil)
		drain()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Send+drain allocated %.1f objects/op, want 0", allocs)
	}

	// Same workload without recycling: identical IDs and timings. Worm
	// fields are captured in the arrival callback, the last point the
	// recycling contract allows reading them.
	a, b := newMeshNet(8, 8, DefaultConfig()), newMeshNet(8, 8, DefaultConfig())
	a.SetRecycling(true)
	for round := 0; round < 3; round++ {
		var got [2][]wormRecord
		for i, net := range []*Network{a, b} {
			rec := &got[i]
			record := func(w *Worm, now int64) {
				*rec = append(*rec, wormRecord{ID: w.ID, InjectedAt: w.InjectedAt, ArrivedAt: w.ArrivedAt})
			}
			net.Send(0, 63, 256, nil, record)
			net.Send(7, 56, 256, nil, record)
			if _, err := net.RunUntilIdle(1 << 16); err != nil {
				t.Fatal(err)
			}
		}
		if len(got[0]) != 2 || !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("round %d: recycling changed IDs or timings:\n with %+v\n sans %+v", round, got[0], got[1])
		}
	}
}

// TestPlannedSendAllocatesNothing: Send plans a worm's route into the
// spare capacity of its path, so on the mesh and on a straight BMIN
// (both plan) Send of a recycled worm allocates nothing, and the worm it
// returns is the pooled one, planned.
func TestPlannedSendAllocatesNothing(t *testing.T) {
	for _, topo := range []Topology{mesh.New2D(16, 16), bmin.New(128, bmin.AscentStraight)} {
		n := New(topo, DefaultConfig())
		n.SetRecycling(true)
		far := NodeID(topo.NumNodes() - 1)
		pooled := n.Send(0, far, 256, nil, nil)
		if _, err := n.RunUntilIdle(1 << 16); err != nil {
			t.Fatal(err)
		}
		var w *Worm
		allocs := testing.AllocsPerRun(50, func() {
			w = n.Send(0, far, 256, nil, nil)
			n.Cancel(w)
		})
		if allocs != 0 {
			t.Errorf("%T: Send of a recycled worm allocated %.1f objects, want 0", topo, allocs)
		}
		if w != pooled || !w.Planned() {
			t.Errorf("%T: Send reissued the pooled worm %v, planned %v; want both", topo, w == pooled, w.Planned())
		}
	}
}

// TestFreshWormSizedOnce: without recycling every Send allocates a
// fresh worm, whose path and passed are sized to its own route. A
// corner-to-corner worm on a 16×16 mesh (32 channels) allocates the
// struct and its two slices, and appends to neither beyond them.
func TestFreshWormSizedOnce(t *testing.T) {
	n := newMeshNet(16, 16, DefaultConfig())
	send := func() {
		n.Send(0, 255, 256, nil, nil)
		if _, err := n.RunUntilIdle(1 << 16); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if allocs := testing.AllocsPerRun(50, send); allocs > 3 {
		t.Fatalf("a fresh corner-to-corner worm allocated %.1f objects, want at most 3", allocs)
	}
}

// TestFreshWormSizedToItsRoute: a fresh worm's path is sized to its own
// route, rounded up to a power of two, not to the longest path the
// network has built. A 1-hop worm sent after a corner-to-corner one on
// a 16×16 mesh holds its 3 channels (injection, one link, ejection) in
// a 4-channel array, where sizing to the longest path would give it 32.
func TestFreshWormSizedToItsRoute(t *testing.T) {
	n := newMeshNet(16, 16, DefaultConfig())
	far := n.Send(0, 255, 256, nil, nil)
	if _, err := n.RunUntilIdle(1 << 16); err != nil {
		t.Fatal(err)
	}
	w := n.Send(0, 1, 256, nil, nil)
	if _, err := n.RunUntilIdle(1 << 16); err != nil {
		t.Fatal(err)
	}
	if got := len(far.Path()); got != 32 {
		t.Fatalf("corner-to-corner path holds %d channels, want 32", got)
	}
	if len(w.Path()) != 3 || cap(w.Path()) != 4 {
		t.Fatalf("1-hop worm after a corner-to-corner one: path %d channels in an array of %d, want 3 in 4",
			len(w.Path()), cap(w.Path()))
	}
}

// TestFreshBMINWormSizedToItsRoute: the BMIN reports its hop counts
// too, so a fresh worm there is sized to its own route. On a 16-node
// BMIN a worm between neighbours 0 and 1 turns at stage 0 and holds 2
// channels in a 2-channel array, after a worm from 0 to 15 built an
// 8-channel path.
func TestFreshBMINWormSizedToItsRoute(t *testing.T) {
	n := New(bmin.New(16, bmin.AscentStraight), DefaultConfig())
	far := n.Send(0, 15, 256, nil, nil)
	if _, err := n.RunUntilIdle(1 << 16); err != nil {
		t.Fatal(err)
	}
	w := n.Send(0, 1, 256, nil, nil)
	if _, err := n.RunUntilIdle(1 << 16); err != nil {
		t.Fatal(err)
	}
	if got := len(far.Path()); got != 8 {
		t.Fatalf("0->15 path holds %d channels, want 8", got)
	}
	if len(w.Path()) != 2 || cap(w.Path()) != 2 {
		t.Fatalf("0->1 worm after a 0->15 one: path %d channels in an array of %d, want 2 in 2",
			len(w.Path()), cap(w.Path()))
	}
}

// TestPooledWormRegrownForLongerRoute: a pooled worm reissued for a
// route longer than its path and passed capacity gets new slices sized
// to that route at Send, two allocations, instead of regrowing both by
// append as its header advances. The 1-hop worm's arrays hold 4
// channels; the corner-to-corner route on a 16×16 mesh needs 32.
func TestPooledWormRegrownForLongerRoute(t *testing.T) {
	n := newMeshNet(16, 16, DefaultConfig())
	n.SetRecycling(true)
	drain := func() {
		if _, err := n.RunUntilIdle(1 << 16); err != nil {
			t.Fatal(err)
		}
	}
	short := n.Send(0, 1, 256, nil, nil)
	drain()
	var long *Worm
	allocs, _ := allocated(func() {
		long = n.Send(0, 255, 256, nil, nil)
		drain()
	})
	if long != short {
		t.Fatal("the corner-to-corner Send did not reissue the pooled 1-hop worm")
	}
	if allocs != 2 {
		t.Fatalf("reissuing the pooled worm for a longer route allocated %d objects, want 2 (its path and passed)", allocs)
	}
}

// TestNewSizesOwnersByFabric: New keeps a flat owner table, 4 B a
// channel, only on a small fabric; on the 1024x1024 mesh its owners are
// hashed, made at the first claim and sized by the channels in flight,
// so New allocates no more than 4 KB there. Per-node copies of the
// injection and ejection channels would add 8 B a node.
func TestNewSizesOwnersByFabric(t *testing.T) {
	small := mesh.New(16, 16)
	for _, tc := range []struct {
		name   string
		topo   Topology
		hashed bool
		limit  uint64
	}{
		{"16x16", small, false, 4*uint64(small.NumChannels()) + 4096},
		{"1024x1024", mesh.New(1024, 1024), true, 4096},
	} {
		_, b := allocated(func() {
			n := New(tc.topo, DefaultConfig())
			if n.Hashed() != tc.hashed {
				t.Errorf("New on the %s mesh: hashed owners %v, want %v", tc.name, n.Hashed(), tc.hashed)
			}
		})
		if b > tc.limit {
			t.Errorf("New on the %s mesh allocated %d B, want at most %d", tc.name, b, tc.limit)
		}
	}
}

// allocated counts the heap allocations of one call of f, and their
// bytes, as testing.AllocsPerRun does over many: a one-time regrowth is
// what it measures.
func allocated(f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
