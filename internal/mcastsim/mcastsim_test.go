package mcastsim_test

import (
	"strings"
	"testing"

	"repro/internal/bmin"
	"repro/internal/chain"
	"repro/internal/core"
	. "repro/internal/mcastsim"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// testSoft keeps t_hold at the sender's true occupancy: per-byte cost
// above the fabric injection rate (see model.DefaultSoftware).
var testSoft = model.Software{
	Send: model.Linear{Fixed: 200, PerByte: 0.15},
	Recv: model.Linear{Fixed: 200, PerByte: 0.15},
	Hold: model.Linear{Fixed: 200, PerByte: 0.15},
}

func meshNet() *wormhole.Network {
	return wormhole.New(mesh.New2D(16, 16), wormhole.DefaultConfig())
}

// placement draws k distinct addresses; the first is the source.
func placement(seed uint64, nodes, k int) []int {
	return sim.NewRNG(seed).Sample(nodes, k)
}

func meshChain(m *mesh.Mesh, addrs []int) (chain.Chain, int) {
	ch := chain.New(addrs, m.DimOrderLess)
	root, ok := ch.Index(addrs[0])
	if !ok {
		panic("source lost")
	}
	return ch, root
}

// TestUnicastPinnedLatency pins the full software+fabric end-to-end time:
// t_send before injection, the fabric formula, t_recv after consumption.
func TestUnicastPinnedLatency(t *testing.T) {
	m := mesh.New2D(16, 16)
	cfg := wormhole.DefaultConfig()
	net := wormhole.New(m, cfg)
	const bytes = 1024
	got, err := Unicast(net, 0, 255, bytes, Config{Software: testSoft})
	if err != nil {
		t.Fatal(err)
	}
	hops := int64(len(wormhole.PathChannels(m, 0, 255)))
	fabric := 2 + (hops-1)*(1+cfg.RouterDelay) + int64(cfg.Flits(bytes))
	want := testSoft.Send.At(bytes) + fabric + testSoft.Recv.At(bytes)
	if got != want {
		t.Fatalf("unicast latency %d, want %d", got, want)
	}
}

func TestUnicastRejectsSelf(t *testing.T) {
	if _, err := Unicast(meshNet(), 3, 3, 64, Config{Software: testSoft}); err == nil {
		t.Fatal("self unicast accepted")
	}
}

// TestOptMeshZeroContention is Theorem 1, end to end: OPT trees planned
// over the dimension-ordered chain never block a single header cycle.
func TestOptMeshZeroContention(t *testing.T) {
	m := mesh.New2D(16, 16)
	tab := core.NewOptTable(16, 441, 1400)
	for seed := uint64(0); seed < 12; seed++ {
		ch, root := meshChain(m, placement(seed, 256, 16))
		res, err := Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, 2048, Config{Software: testSoft})
		if err != nil {
			t.Fatal(err)
		}
		if res.BlockedCycles != 0 {
			t.Fatalf("seed %d: OPT-mesh blocked %d cycles", seed, res.BlockedCycles)
		}
	}
}

// TestUMeshZeroContention: the binomial U-mesh tree over the same chain is
// also contention-free (McKinley et al.).
func TestUMeshZeroContention(t *testing.T) {
	m := mesh.New2D(16, 16)
	tab := core.BinomialTable{Max: 16}
	for seed := uint64(100); seed < 112; seed++ {
		ch, root := meshChain(m, placement(seed, 256, 16))
		res, err := Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, 2048, Config{Software: testSoft})
		if err != nil {
			t.Fatal(err)
		}
		if res.BlockedCycles != 0 {
			t.Fatalf("seed %d: U-mesh blocked %d cycles", seed, res.BlockedCycles)
		}
	}
}

// TestOptTreeRandomOrderContends: without architecture-dependent node
// ordering the same tree shape does hit contention on some placements —
// the phenomenon the paper's tuning removes.
func TestOptTreeRandomOrderContends(t *testing.T) {
	m := mesh.New2D(16, 16)
	tab := core.NewOptTable(32, 441, 1400)
	var total int64
	for seed := uint64(0); seed < 8; seed++ {
		addrs := placement(seed, 256, 32)
		ch := chain.Unordered(addrs)
		res, err := Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, 0, 4096, Config{Software: testSoft})
		if err != nil {
			t.Fatal(err)
		}
		total += res.BlockedCycles
	}
	if total == 0 {
		t.Fatal("unordered OPT-tree never contended across 8 placements; contention modelling is broken")
	}
}

// TestWrongOrderingContends: sorting the chain by plain numeric address
// (most significant dimension != first-routed dimension) breaks the
// contention-freedom guarantee — evidence that the <_d pairing matters.
func TestWrongOrderingContends(t *testing.T) {
	m := mesh.New2D(16, 16)
	tab := core.BinomialTable{Max: 32}
	var total int64
	for seed := uint64(0); seed < 10; seed++ {
		addrs := placement(seed, 256, 32)
		ch := chain.New(addrs, func(a, b int) bool { return a < b })
		root, _ := ch.Index(addrs[0])
		res, err := Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, 4096, Config{Software: testSoft})
		if err != nil {
			t.Fatal(err)
		}
		total += res.BlockedCycles
	}
	if total == 0 {
		t.Fatal("numeric ordering never contended; the dimension-order test is vacuous")
	}
}

// TestOptMinUMinZeroContention is Theorem 2: on the BMIN with the straight
// ascent policy, both lexicographic-chain algorithms are contention-free.
func TestOptMinUMinZeroContention(t *testing.T) {
	b := bmin.New(128, bmin.AscentStraight)
	for _, tab := range []core.SplitTable{
		core.NewOptTable(16, 441, 1400),
		core.BinomialTable{Max: 16},
	} {
		for seed := uint64(200); seed < 210; seed++ {
			addrs := placement(seed, 128, 16)
			ch := chain.New(addrs, b.LexLess)
			root, _ := ch.Index(addrs[0])
			res, err := Run(wormhole.New(b, wormhole.DefaultConfig()), tab, ch, root, 2048, Config{Software: testSoft})
			if err != nil {
				t.Fatal(err)
			}
			if res.BlockedCycles != 0 {
				t.Fatalf("seed %d: blocked %d cycles on BMIN", seed, res.BlockedCycles)
			}
		}
	}
}

// TestSimulationMatchesAnalytic: for a contention-free run, the simulated
// multicast latency must match the analytic tree evaluation built from the
// simulator's own measured (t_hold, t_end) — up to the per-hop distance
// spread that the parameterized model deliberately abstracts away.
func TestSimulationMatchesAnalytic(t *testing.T) {
	m := mesh.New2D(16, 16)
	cfgW := wormhole.DefaultConfig()
	cfgM := Config{Software: testSoft}
	const bytes = 2048
	const k = 16

	// Measure t_end with a calibration unicast over an average-distance
	// pair, as the paper does at user level.
	tendMeasured, err := Unicast(wormhole.New(m, cfgW), m.Addr(0, 0), m.Addr(5, 5), bytes, cfgM)
	if err != nil {
		t.Fatal(err)
	}
	thold := testSoft.Hold.At(bytes)

	tab := core.NewOptTable(k, thold, tendMeasured)
	for seed := uint64(300); seed < 306; seed++ {
		ch, root := meshChain(m, placement(seed, 256, k))
		res, err := Run(wormhole.New(m, cfgW), tab, ch, root, bytes, cfgM)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := plan.Tree(tab, chain.Segment{L: 0, R: k - 1}, root)
		if err != nil {
			t.Fatal(err)
		}
		analytic := tree.Eval(thold, tendMeasured)
		// Tolerance: tree depth * max per-hop spread. The calibration
		// pair sits at distance 10; the worst pair differs by at most 20
		// hops, each costing (1+RouterDelay).
		tol := int64(tree.Depth()) * 20 * (1 + cfgW.RouterDelay)
		diff := res.Latency - analytic
		if diff < 0 {
			diff = -diff
		}
		if diff > tol {
			t.Fatalf("seed %d: simulated %d vs analytic %d (tolerance %d)", seed, res.Latency, analytic, tol)
		}
	}
}

// TestResultAccounting: every chain position is delivered exactly once,
// the message count is k-1, and the root's delivery time is 0.
func TestResultAccounting(t *testing.T) {
	m := mesh.New2D(8, 8)
	tab := core.NewOptTable(12, 441, 1400)
	ch, root := meshChain(m, placement(7, 64, 12))
	res, err := Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, 512, Config{Software: testSoft})
	if err != nil {
		t.Fatal(err)
	}
	if res.Worms != 11 {
		t.Fatalf("worms = %d, want 11", res.Worms)
	}
	if res.Deliveries[root] != 0 {
		t.Fatalf("root delivery = %d", res.Deliveries[root])
	}
	var max int64
	for i, d := range res.Deliveries {
		if d < 0 {
			t.Fatalf("position %d undelivered", i)
		}
		if i != root && d == 0 {
			t.Fatalf("position %d delivered at time 0", i)
		}
		if d > max {
			max = d
		}
	}
	if res.Latency != max {
		t.Fatalf("latency %d != max delivery %d", res.Latency, max)
	}
}

// TestAddrPayloadIncreasesLatency: charging bytes for carried address
// lists lengthens the multicast. The binomial tree's critical path runs
// through the first (heaviest-laden) send at every level, so the effect
// must show up in the final latency, and every delivery can only get
// later.
func TestAddrPayloadIncreasesLatency(t *testing.T) {
	m := mesh.New2D(16, 16)
	tab := core.BinomialTable{Max: 32}
	ch, root := meshChain(m, placement(11, 256, 32))
	base, err := Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, 1024, Config{Software: testSoft})
	if err != nil {
		t.Fatal(err)
	}
	withAddr, err := Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, 1024, Config{Software: testSoft, AddrBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if withAddr.Latency <= base.Latency {
		t.Fatalf("address payload did not lengthen the multicast: %d vs %d", withAddr.Latency, base.Latency)
	}
	for i := range base.Deliveries {
		if withAddr.Deliveries[i] < base.Deliveries[i] {
			t.Fatalf("delivery %d got earlier with extra payload", i)
		}
	}
}

// TestOnePortBackpressure: when t_hold is much smaller than the injection
// time of a large message, successive sends queue at the one-port
// interface and record inject-wait.
func TestOnePortBackpressure(t *testing.T) {
	m := mesh.New2D(16, 16)
	soft := model.Software{
		Send: model.Linear{Fixed: 10},
		Recv: model.Linear{Fixed: 10},
		Hold: model.Linear{Fixed: 10},
	}
	tab := core.SequentialTable{Max: 8} // root sends 7 large messages back to back
	ch, root := meshChain(m, placement(13, 256, 8))
	res, err := Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, 8192, Config{Software: soft})
	if err != nil {
		t.Fatal(err)
	}
	if res.InjectWaitCycles == 0 {
		t.Fatal("no inject-wait despite t_hold << injection time")
	}
}

// TestRunDeterministic: identical inputs give byte-identical results.
func TestRunDeterministic(t *testing.T) {
	m := mesh.New2D(16, 16)
	tab := core.NewOptTable(24, 441, 1400)
	run := func() Result {
		ch, root := meshChain(m, placement(17, 256, 24))
		res, err := Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, 4096, Config{Software: testSoft})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Latency != b.Latency || a.BlockedCycles != b.BlockedCycles || a.Cycles != b.Cycles {
		t.Fatalf("runs diverged: %+v vs %+v", a, b)
	}
	for i := range a.Deliveries {
		if a.Deliveries[i] != b.Deliveries[i] {
			t.Fatalf("delivery %d diverged", i)
		}
	}
}

// TestSingleNodeMulticast: a chain of one completes instantly.
func TestSingleNodeMulticast(t *testing.T) {
	m := mesh.New2D(4, 4)
	tab := core.NewOptTable(1, 1, 1)
	res, err := Run(wormhole.New(m, wormhole.DefaultConfig()), tab, chain.Chain{5}, 0, 128, Config{Software: testSoft})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 0 || res.Worms != 0 {
		t.Fatalf("single-node multicast: %+v", res)
	}
}

// TestRunArgumentErrors exercises every validation path.
func TestRunArgumentErrors(t *testing.T) {
	m := mesh.New2D(4, 4)
	tab := core.NewOptTable(4, 1, 2)
	net := wormhole.New(m, wormhole.DefaultConfig())
	cfg := Config{Software: testSoft}
	cases := []struct {
		name string
		fn   func() error
	}{
		{"dup chain", func() error { _, err := Run(net, tab, chain.Chain{1, 1}, 0, 8, cfg); return err }},
		{"root out of range", func() error { _, err := Run(net, tab, chain.Chain{1, 2}, 5, 8, cfg); return err }},
		{"chain too long", func() error { _, err := Run(net, tab, chain.Chain{0, 1, 2, 3, 4}, 0, 8, cfg); return err }},
		{"negative size", func() error { _, err := Run(net, tab, chain.Chain{1, 2}, 0, -1, cfg); return err }},
		{"address outside fabric", func() error { _, err := Run(net, tab, chain.Chain{1, 99}, 0, 8, cfg); return err }},
	}
	for _, c := range cases {
		if c.fn() == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestRunRejectsBusyFabric: a fabric with a worm in flight is refused.
func TestRunRejectsBusyFabric(t *testing.T) {
	m := mesh.New2D(4, 4)
	net := wormhole.New(m, wormhole.DefaultConfig())
	net.Send(0, 15, 1024, nil, nil)
	_, err := Run(net, core.NewOptTable(2, 1, 2), chain.Chain{0, 1}, 0, 8, Config{Software: testSoft})
	if err == nil || !strings.Contains(err.Error(), "not idle") {
		t.Fatalf("busy fabric accepted: %v", err)
	}
}

// TestRunMaxCyclesGuard: an absurdly small budget reports an error rather
// than hanging, from Run and from RunConcurrent alike.
func TestRunMaxCyclesGuard(t *testing.T) {
	m := mesh.New2D(16, 16)
	tab := core.NewOptTable(8, 441, 1400)
	ch, root := meshChain(m, placement(19, 256, 8))
	cfg := Config{Software: testSoft, MaxCycles: 10}
	_, err := Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, 1<<16, cfg)
	if err == nil || !strings.Contains(err.Error(), "not complete after 10 cycles") {
		t.Fatalf("Run: want the cycle-budget error, got %v", err)
	}
	group := []Group{{Tab: tab, Chain: ch, Root: root, Bytes: 1 << 16}}
	_, err = RunConcurrent(wormhole.New(m, wormhole.DefaultConfig()), group, cfg)
	if err == nil || !strings.Contains(err.Error(), "not complete after 10 cycles") {
		t.Fatalf("RunConcurrent: want the cycle-budget error, got %v", err)
	}
}

// TestPlannerErrorSurfaces: an incompatible split table (ChainTable with a
// mid-chain source) propagates its planning error out of Run.
func TestPlannerErrorSurfaces(t *testing.T) {
	m := mesh.New2D(4, 4)
	tab := core.ChainTable{Max: 8}
	ch := chain.Chain{0, 1, 2, 3, 4, 5, 6, 7}
	_, err := Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, 4, 64, Config{Software: testSoft})
	if err == nil {
		t.Fatal("planner incompatibility not surfaced")
	}
}

// TestLargerTreesStillQuiesce: a 64-node multicast on the full 16x16 mesh
// completes and quiesces with sequential, binomial and OPT shapes.
func TestLargerTreesStillQuiesce(t *testing.T) {
	m := mesh.New2D(16, 16)
	for _, tab := range []core.SplitTable{
		core.NewOptTable(64, 441, 1400),
		core.BinomialTable{Max: 64},
		core.SequentialTable{Max: 64},
	} {
		ch, root := meshChain(m, placement(23, 256, 64))
		res, err := Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, 512, Config{Software: testSoft})
		if err != nil {
			t.Fatal(err)
		}
		if res.Worms != 63 {
			t.Fatalf("worms = %d", res.Worms)
		}
	}
}

// TestRunAllocsFlatInK: on a warm fabric, a multicast makes the same
// number of allocations whatever its group size — the run's own records,
// none per send.
func TestRunAllocsFlatInK(t *testing.T) {
	m := mesh.New2D(8, 8)
	net := wormhole.New(m, wormhole.DefaultConfig())
	net.SetRecycling(true)
	cfg := Config{Software: testSoft}
	run := func(seed uint64, k int) func() {
		ch, root := meshChain(m, placement(seed, m.NumNodes(), k))
		tab := core.NewOptTable(k, testSoft.Hold.At(256), 600)
		return func() {
			if _, err := Run(net, tab, ch, root, 256, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	small, large := run(1, 8), run(2, 64)
	for i := 0; i < 20; i++ {
		small()
		large()
	}
	a8 := testing.AllocsPerRun(20, small)
	a64 := testing.AllocsPerRun(20, large)
	if a8 != a64 {
		t.Fatalf("a multicast made %.0f allocs at k=8 but %.0f at k=64", a8, a64)
	}
	t.Logf("%.0f allocs per multicast at k=8 and k=64", a8)
}
