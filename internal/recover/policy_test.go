package recover_test

import (
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/mcastsim"
	"repro/internal/mesh"
	"repro/internal/plan"
	recov "repro/internal/recover"
	"repro/internal/wormhole"
)

// TestOrphanAdoptedByNearestDeliveredMember pins the satellite fix:
// orphan re-assignment must pick the delivered member nearest the
// orphan by hop distance, not the first candidate in chain order. The
// geometry makes the two policies disagree: members {0, 2, 10, 15} on a
// 4x4 mesh with the (2,0)->(3,0) east hop silently stuck. The
// sequential tree sends 0->15 across the stuck hop, which burns its
// budget and orphans 15; delivered candidates are then node 2 (chain
// position 1, 4 fabric hops from 15, and its XY path to 15 crosses the
// very same stuck hop) and node 10 (position 2, 2 hops, clean path).
// First-candidate order would adopt via node 2 — the pathologically far
// adopter — while nearest-by-hop must pick node 10. The adopter is read
// off the fabric: the one worm that reached node 15 must have left
// node 10.
func TestOrphanAdoptedByNearestDeliveredMember(t *testing.T) {
	m := mesh.New2D(4, 4)
	const bytes = 256
	addrs := []int{0, 2, 10, 15}
	ch := chain.New(addrs, m.DimOrderLess)
	root, _ := ch.Index(0)
	pos2, _ := ch.Index(2)
	pos10, _ := ch.Index(10)
	pos15, _ := ch.Index(15)
	tend := calibrate(t, m, addrs, bytes)

	if d10, d2 := recov.HopDistance(m, nil, 10, 15), recov.HopDistance(m, nil, 2, 15); d10 >= d2 {
		t.Fatalf("geometry broken: HopDistance(10,15)=%d not closer than HopDistance(2,15)=%d", d10, d2)
	}

	run := func() (recov.Result, []wormhole.NodeID) {
		path := wormhole.PathChannels(m, 0, 15)
		net := wormhole.New(m, wormhole.DefaultConfig())
		net.SetFaults(stuckChannel{path[3]}) // east hop (2,0)->(3,0)
		to15 := &sendersTo{dst: 15}
		net.SetObserver(to15)
		res, err := recov.Run(net, core.SequentialTable{Max: len(ch)}, ch, root, bytes, recov.Config{
			Sim:  mcastsim.Config{Software: testSoft},
			TEnd: tend,
			Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, to15.srcs
	}

	res, srcs := run()
	if res.Delivered != 3 || res.Abandoned != 0 {
		t.Fatalf("want all destinations delivered, got %+v", res)
	}
	if res.Status[pos15] != mcastsim.StatusAdopted {
		t.Fatalf("node 15 status = %v, want adopted", res.Status[pos15])
	}
	if len(srcs) != 1 || srcs[0] != 10 {
		t.Fatalf("node 15 reached by worms from nodes %v, want one from node 10 (position %d, the nearest delivered member)", srcs, pos10)
	}
	for _, p := range []int{root, pos2, pos10} {
		if res.Status[p] == mcastsim.StatusAdopted {
			t.Fatalf("position %d adopted, want delivered by its planned sender", p)
		}
	}
	// The adopter choice is a pure function of the fault set and the
	// seeded schedule: a rerun must reproduce the result bit-exactly.
	if again, _ := run(); !reflect.DeepEqual(res, again) {
		t.Fatalf("orphan adoption not deterministic:\n first %+v\nsecond %+v", res, again)
	}
}

// sendersTo records the source of every worm that reaches dst.
type sendersTo struct {
	dst  wormhole.NodeID
	srcs []wormhole.NodeID
}

func (o *sendersTo) Acquire(int64, *wormhole.Worm, wormhole.ChannelID)                 {}
func (o *sendersTo) Release(int64, *wormhole.Worm, wormhole.ChannelID)                 {}
func (o *sendersTo) Blocked(int64, *wormhole.Worm, wormhole.ChannelID, *wormhole.Worm) {}
func (o *sendersTo) Complete(_ int64, w *wormhole.Worm) {
	if w.Dst == o.dst {
		o.srcs = append(o.srcs, w.Src)
	}
}

// TestIncrementalRepairFewerRepairSends compares the repair policies on
// identical failures: a stuck channel under the root's first binomial
// send makes the transfer of the far-half subtree fail. Full re-planning
// re-splits the surviving subtree into multiple repair sends; the
// incremental policy grafts it whole onto the survivor nearest the
// sender with exactly one. Both must deliver everything the fabric
// allows — and on this geometry, everything.
func TestIncrementalRepairFewerRepairSends(t *testing.T) {
	m := mesh.New2D(8, 8)
	const k, bytes = 12, 512
	ch, root := meshGroup(m, 21, k)
	tend := calibrate(t, m, ch, bytes)

	// Stick a mid-path channel of the root's first planned transfer (the
	// far-half subtree carrier) without killing the whole neighborhood.
	tab := core.BinomialTable{Max: k}
	positions := make([]int, k)
	for i := range positions {
		positions[i] = i
	}
	sends, err := plan.RepairSends(nil, tab, positions, root)
	if err != nil {
		t.Fatal(err)
	}
	first := sends[0]
	if len(first.Live) < 3 {
		t.Fatalf("first send carries %d members; need a subtree for repair to matter", len(first.Live))
	}
	path := wormhole.PathChannels(m, wormhole.NodeID(ch[root]), wormhole.NodeID(ch[first.To]))
	stuck := path[len(path)/2]

	run := func(policy recov.RepairPolicy) recov.Result {
		net := wormhole.New(m, wormhole.DefaultConfig())
		net.SetFaults(stuckChannel{stuck})
		res, err := recov.Run(net, tab, ch, root, bytes, recov.Config{
			Sim:    mcastsim.Config{Software: testSoft},
			TEnd:   tend,
			Repair: policy,
			Seed:   17,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	full := run(recov.RepairFull)
	incr := run(recov.RepairIncremental)
	if full.Delivered != k-1 || incr.Delivered != k-1 {
		t.Fatalf("delivered: full %d, incremental %d, want %d each", full.Delivered, incr.Delivered, k-1)
	}
	if full.Overhead.Repairs < 1 || incr.Overhead.Repairs < 1 {
		t.Fatalf("no give-ups happened (full %+v, incr %+v); the stuck channel missed the tree", full.Overhead, incr.Overhead)
	}
	if incr.Overhead.RepairSends >= full.Overhead.RepairSends {
		t.Fatalf("incremental repair sends %d not strictly fewer than full re-plan's %d",
			incr.Overhead.RepairSends, full.Overhead.RepairSends)
	}
}

// TestRepairBinomialFromStart: the fixed binomial policy plans
// recursive doubling from the first send and records the flip at 0.
func TestRepairBinomialFromStart(t *testing.T) {
	m := mesh.New2D(8, 8)
	const k, bytes = 10, 512
	ch, root := meshGroup(m, 5, k)
	tend := calibrate(t, m, ch, bytes)
	thold := testSoft.Hold.At(bytes)

	base, err := mcastsim.Run(wormhole.New(m, wormhole.DefaultConfig()), core.BinomialTable{Max: k}, ch, root, bytes,
		mcastsim.Config{Software: testSoft})
	if err != nil {
		t.Fatal(err)
	}
	got, err := recov.Run(wormhole.New(m, wormhole.DefaultConfig()), core.NewOptTable(k, thold, tend), ch, root, bytes,
		recov.Config{Sim: mcastsim.Config{Software: testSoft}, TEnd: tend, Repair: recov.RepairBinomial})
	if err != nil {
		t.Fatal(err)
	}
	// The configured OPT table must be ignored: the healthy execution is
	// exactly mcastsim's binomial multicast.
	if got.Latency != base.Latency || !reflect.DeepEqual(got.Deliveries, base.Deliveries) {
		t.Fatalf("binomial policy did not plan binomial:\n got %+v\nbase %+v", got, base)
	}
	if got.FallbackAt != 0 {
		t.Fatalf("FallbackAt = %d, want 0 for the fixed binomial policy", got.FallbackAt)
	}
}

// TestDegreeCapHonored: with DegreeCap set, no node in the realized
// delivery tree exceeds the fan-out cap, and everything is delivered on
// a healthy fabric.
func TestDegreeCapHonored(t *testing.T) {
	m := mesh.New2D(8, 8)
	const k, bytes, cap = 14, 512, 2
	ch, root := meshGroup(m, 9, k)
	tend := calibrate(t, m, ch, bytes)

	res, err := recov.Run(wormhole.New(m, wormhole.DefaultConfig()), core.BinomialTable{Max: k}, ch, root, bytes,
		recov.Config{Sim: mcastsim.Config{Software: testSoft}, TEnd: tend, DegreeCap: cap})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != k-1 || res.Abandoned != 0 {
		t.Fatalf("degree-capped healthy run did not deliver everything: %+v", res)
	}
	// Sends == Worms on a healthy run, and a cap-2 tree over k members
	// has exactly k-1 transfers; per-node fan-out is pinned by the plan
	// fuzz tests, so here we check the run shape stayed a tree.
	if res.Overhead.Sends != int64(k-1) {
		t.Fatalf("degree-capped tree issued %d sends, want %d", res.Overhead.Sends, k-1)
	}
}
