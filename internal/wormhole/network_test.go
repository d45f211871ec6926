package wormhole_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mesh"
	. "repro/internal/wormhole"
)

func newMeshNet(w, h int, cfg Config) *Network {
	return New(mesh.New2D(w, h), cfg)
}

// runOne sends a single worm and returns its arrival time.
func runOne(t *testing.T, n *Network, src, dst NodeID, bytes int) *Worm {
	t.Helper()
	w := n.Send(src, dst, bytes, nil, nil)
	if _, err := n.RunUntilIdle(1 << 20); err != nil {
		t.Fatal(err)
	}
	if !w.Done() {
		t.Fatal("worm not done after idle")
	}
	return w
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{FlitBytes: 0, HeaderFlits: 1, BufFlits: 1},
		{FlitBytes: 8, HeaderFlits: 0, BufFlits: 1},
		{FlitBytes: 8, HeaderFlits: 1, BufFlits: 0},
		{FlitBytes: 8, HeaderFlits: 1, BufFlits: 1, RouterDelay: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestConfigFlits(t *testing.T) {
	c := Config{FlitBytes: 8, HeaderFlits: 1, BufFlits: 2}
	cases := []struct{ bytes, flits int }{{0, 1}, {1, 2}, {8, 2}, {9, 3}, {64, 9}}
	for _, cs := range cases {
		if got := c.Flits(cs.bytes); got != cs.flits {
			t.Errorf("Flits(%d) = %d, want %d", cs.bytes, got, cs.flits)
		}
	}
}

// TestUnicastDistanceSensitivity: on an idle fabric, arrival time grows by
// exactly (1 + RouterDelay) per extra hop — the per-hop pipeline setup
// cost of wormhole switching.
func TestUnicastDistanceSensitivity(t *testing.T) {
	cfg := DefaultConfig()
	m := mesh.New2D(16, 1)
	var prev int64
	for d := 1; d <= 15; d++ {
		n := New(m, cfg)
		w := runOne(t, n, 0, NodeID(d), 256)
		if d > 1 {
			if diff := w.ArrivedAt - prev; diff != 1+cfg.RouterDelay {
				t.Fatalf("hop %d: arrival delta %d, want %d", d, diff, 1+cfg.RouterDelay)
			}
		}
		prev = w.ArrivedAt
	}
}

// TestUnicastBandwidth: doubling the flit count adds exactly that many
// cycles — the fabric pipelines one flit per cycle.
func TestUnicastBandwidth(t *testing.T) {
	cfg := DefaultConfig()
	a := runOne(t, newMeshNet(8, 8, cfg), 0, 63, 800)
	b := runOne(t, newMeshNet(8, 8, cfg), 0, 63, 1600)
	extra := int64(cfg.Flits(1600) - cfg.Flits(800))
	if b.ArrivedAt-a.ArrivedAt != extra {
		t.Fatalf("1600B at %d, 800B at %d: delta %d, want %d flit cycles",
			b.ArrivedAt, a.ArrivedAt, b.ArrivedAt-a.ArrivedAt, extra)
	}
}

// TestUnicastLatencyFormula pins the exact uncontended end-to-end fabric
// latency: path setup at (1+RouterDelay) per acquired channel beyond the
// first, plus one cycle per flit, plus fixed injection offsets. A change
// here is a change to the simulator's timing semantics and must be
// deliberate.
func TestUnicastLatencyFormula(t *testing.T) {
	cfg := DefaultConfig()
	m := mesh.New2D(16, 16)
	for _, tc := range []struct {
		src, dst int
		bytes    int
	}{
		{0, 1, 0}, {0, 255, 4096}, {17, 94, 64}, {5, 5, 128},
	} {
		n := New(m, cfg)
		w := runOne(t, n, NodeID(tc.src), NodeID(tc.dst), tc.bytes)
		hops := int64(len(PathChannels(m, NodeID(tc.src), NodeID(tc.dst)))) // channels incl inject/eject
		flits := int64(cfg.Flits(tc.bytes))
		// Timing walkthrough: worm created at cycle 0; acquires injection
		// channel in cycle 1; header enters it in cycle 2 and becomes
		// routable after RouterDelay; each subsequent channel costs
		// 1 cycle to acquire + RouterDelay before the next decision; the
		// tail flit is consumed one cycle per flit after the header
		// reaches the ejection channel.
		want := 2 + (hops-1)*(1+cfg.RouterDelay) + flits
		if w.ArrivedAt != want {
			t.Fatalf("%d->%d %dB: arrived %d, want %d", tc.src, tc.dst, tc.bytes, w.ArrivedAt, want)
		}
		if w.BlockedCycles != 0 || w.InjectWaitCycles != 0 {
			t.Fatalf("uncontended worm reports blocked=%d wait=%d", w.BlockedCycles, w.InjectWaitCycles)
		}
	}
}

// TestQuiescedAfterRun: all channels released, conservation of flits.
func TestQuiescedAfterRun(t *testing.T) {
	cfg := DefaultConfig()
	n := newMeshNet(8, 8, cfg)
	for i := 0; i < 10; i++ {
		n.Send(NodeID(i), NodeID(63-i), 512, nil, nil)
	}
	if _, err := n.RunUntilIdle(1 << 20); err != nil {
		t.Fatal(err)
	}
	if err := n.Quiesced(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Worms != 10 {
		t.Fatalf("completed %d worms", st.Worms)
	}
}

// TestFlitConservation: FlitHops equals flits * (pathLen + 1) for a single
// worm — every flit is injected once, crosses each inter-channel boundary
// once, and is consumed once.
func TestFlitConservation(t *testing.T) {
	cfg := DefaultConfig()
	m := mesh.New2D(8, 8)
	n := New(m, cfg)
	w := runOne(t, n, 3, 42, 1000)
	pathLen := int64(len(w.Path()))
	want := int64(cfg.Flits(1000)) * (pathLen + 1)
	if got := n.Stats().FlitHops; got != want {
		t.Fatalf("FlitHops = %d, want %d (flits=%d x (path+1)=%d)", got, want, cfg.Flits(1000), pathLen+1)
	}
}

// TestContentionOnSharedLink: two worms crossing the same links contend;
// exactly one of them blocks (here the closer one, w2, wins the shared
// links by proximity and the older w1 queues behind it) and the stats
// aggregate per-worm blocking.
func TestContentionOnSharedLink(t *testing.T) {
	cfg := DefaultConfig()
	m := mesh.New2D(16, 1)
	n := New(m, cfg)
	// Both traverse links 2->...->12 eastward.
	w1 := n.Send(0, 12, 800, nil, nil)
	w2 := n.Send(2, 13, 800, nil, nil)
	if _, err := n.RunUntilIdle(1 << 20); err != nil {
		t.Fatal(err)
	}
	if w1.BlockedCycles+w2.BlockedCycles == 0 {
		t.Fatal("overlapping worms never blocked")
	}
	if w2.BlockedCycles != 0 {
		t.Fatalf("w2 starts closer to the shared links and should win them, yet blocked %d cycles", w2.BlockedCycles)
	}
	if n.Stats().BlockedCycles != w1.BlockedCycles+w2.BlockedCycles {
		t.Fatal("stats do not aggregate per-worm blocking")
	}
}

// TestNoContentionDisjointPaths: worms on disjoint rows never block.
func TestNoContentionDisjointPaths(t *testing.T) {
	cfg := DefaultConfig()
	m := mesh.New2D(8, 8)
	n := New(m, cfg)
	for row := 0; row < 8; row++ {
		n.Send(NodeID(row*8), NodeID(row*8+7), 512, nil, nil)
	}
	if _, err := n.RunUntilIdle(1 << 20); err != nil {
		t.Fatal(err)
	}
	if b := n.Stats().BlockedCycles; b != 0 {
		t.Fatalf("disjoint rows blocked %d cycles", b)
	}
}

// TestBlockingInPlace: a blocked worm holds its acquired channels, which
// transitively blocks a third worm that needs them (the wormhole chained
// -blocking pathology the paper's ordering avoids).
func TestBlockingInPlace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufFlits = 1
	m := mesh.New2D(16, 16)
	n := New(m, cfg)
	// w1 climbs column 0 from its foot and owns it for a long time.
	w1 := n.Send(NodeID(m.Addr(0, 0)), NodeID(m.Addr(0, 15)), 4000, nil, nil)
	// w2 approaches along row 0 (5 hops), then needs column 0 upward:
	// by then w1 owns it, so w2 stalls holding its row-0 west channels.
	w2 := n.Send(NodeID(m.Addr(5, 0)), NodeID(m.Addr(0, 10)), 4000, nil, nil)
	// w3 crosses row 0 westward through channels w2 holds while stalled:
	// blocked transitively, two links behind the real culprit.
	w3 := n.Send(NodeID(m.Addr(7, 0)), NodeID(m.Addr(2, 0)), 4000, nil, nil)
	if _, err := n.RunUntilIdle(1 << 22); err != nil {
		t.Fatal(err)
	}
	if w2.BlockedCycles == 0 {
		t.Fatal("w2 should block on w1's column channels")
	}
	if w3.BlockedCycles == 0 {
		t.Fatal("w3 should block behind the chain (blocking in place)")
	}
	if !(w1.ArrivedAt < w2.ArrivedAt) {
		t.Fatalf("arrivals not serialized: w1=%d w2=%d w3=%d", w1.ArrivedAt, w2.ArrivedAt, w3.ArrivedAt)
	}
}

// TestOnePortInjectionSerialization: two messages from the same node share
// one injection channel; the second records inject-wait, not network
// contention.
func TestOnePortInjectionSerialization(t *testing.T) {
	cfg := DefaultConfig()
	m := mesh.New2D(8, 8)
	n := New(m, cfg)
	w1 := n.Send(0, 7, 1600, nil, nil)
	w2 := n.Send(0, 56, 1600, nil, nil) // disjoint path after injection
	if _, err := n.RunUntilIdle(1 << 20); err != nil {
		t.Fatal(err)
	}
	if w1.InjectWaitCycles != 0 {
		t.Fatal("first worm waited to inject")
	}
	if w2.InjectWaitCycles == 0 {
		t.Fatal("second worm did not wait for the one-port interface")
	}
	if w2.BlockedCycles != 0 {
		t.Fatalf("one-port wait misclassified as network contention (%d blocked cycles)", w2.BlockedCycles)
	}
	// The second worm cannot finish injecting before the first has fully
	// left the injection channel.
	if w2.InjectedAt <= w1.InjectedAt {
		t.Fatal("injections not serialized")
	}
}

// TestSuccessiveSendsNeverStall: a node's later message trails its earlier
// one and never records network blocking even on a fully shared path —
// the property that makes per-sender serialization free of contention.
func TestSuccessiveSendsNeverStall(t *testing.T) {
	cfg := DefaultConfig()
	m := mesh.New2D(16, 1)
	n := New(m, cfg)
	w1 := n.Send(0, 15, 2048, nil, nil)
	w2 := n.Send(0, 15, 2048, nil, nil)
	w3 := n.Send(0, 14, 2048, nil, nil)
	if _, err := n.RunUntilIdle(1 << 22); err != nil {
		t.Fatal(err)
	}
	for i, w := range []*Worm{w1, w2, w3} {
		if w.BlockedCycles != 0 {
			t.Fatalf("worm %d blocked %d cycles in the network", i+1, w.BlockedCycles)
		}
	}
}

// TestSendToSelf: a worm can traverse its own inject/eject pair.
func TestSendToSelf(t *testing.T) {
	n := newMeshNet(4, 4, DefaultConfig())
	w := runOne(t, n, 5, 5, 64)
	if len(w.Path()) != 2 {
		t.Fatalf("self-send path length %d, want 2", len(w.Path()))
	}
}

// TestArrivalCallback fires exactly once with the completed worm.
func TestArrivalCallback(t *testing.T) {
	n := newMeshNet(4, 4, DefaultConfig())
	calls := 0
	var at int64
	w := n.Send(0, 15, 128, "payload", func(w *Worm, now int64) {
		calls++
		at = now
		if w.Tag != "payload" {
			t.Errorf("tag = %v", w.Tag)
		}
	})
	if _, err := n.RunUntilIdle(1 << 20); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("callback fired %d times", calls)
	}
	if at != w.ArrivedAt {
		t.Fatalf("callback at %d, worm arrived %d", at, w.ArrivedAt)
	}
}

// TestDeterminism: identical workloads give identical cycle-exact results.
func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		n := newMeshNet(8, 8, DefaultConfig())
		var worms []*Worm
		for i := 0; i < 20; i++ {
			worms = append(worms, n.Send(NodeID(i), NodeID(63-i*2%64), 700, nil, nil))
		}
		if _, err := n.RunUntilIdle(1 << 20); err != nil {
			t.Fatal(err)
		}
		out := []int64{n.Stats().BlockedCycles, n.Stats().FlitHops}
		for _, w := range worms {
			out = append(out, w.ArrivedAt)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestOldestFirstArbitration: when two headers want the same channel in
// the same cycle, the older worm wins.
func TestOldestFirstArbitration(t *testing.T) {
	cfg := DefaultConfig()
	m := mesh.New2D(3, 3)
	n := New(m, cfg)
	// Perfectly symmetric contenders for node (1,1)'s single ejection
	// channel: both headers arrive at router (1,1) in the same cycle and
	// request ejection in the same phase; the older worm must win.
	w1 := n.Send(NodeID(m.Addr(0, 1)), NodeID(m.Addr(1, 1)), 4000, nil, nil)
	w2 := n.Send(NodeID(m.Addr(2, 1)), NodeID(m.Addr(1, 1)), 4000, nil, nil)
	if _, err := n.RunUntilIdle(1 << 22); err != nil {
		t.Fatal(err)
	}
	if w1.BlockedCycles != 0 || w2.BlockedCycles == 0 {
		t.Fatalf("arbitration: w1 blocked %d, w2 blocked %d; older should win", w1.BlockedCycles, w2.BlockedCycles)
	}
	if w1.ArrivedAt >= w2.ArrivedAt {
		t.Fatalf("older worm finished at %d, younger at %d", w1.ArrivedAt, w2.ArrivedAt)
	}
}

// TestAdvanceTo fast-forwards only an idle fabric.
func TestAdvanceTo(t *testing.T) {
	n := newMeshNet(4, 4, DefaultConfig())
	n.AdvanceTo(1000)
	if n.Now() != 1000 {
		t.Fatalf("now = %d", n.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past did not panic")
		}
	}()
	n.AdvanceTo(500)
}

func TestAdvanceToActivePanics(t *testing.T) {
	n := newMeshNet(4, 4, DefaultConfig())
	n.Send(0, 1, 64, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo with active worms did not panic")
		}
	}()
	n.AdvanceTo(10)
}

// TestRunUntilIdleTimeout returns an error instead of hanging.
func TestRunUntilIdleTimeout(t *testing.T) {
	n := newMeshNet(8, 8, DefaultConfig())
	n.Send(0, 63, 1<<20, nil, nil) // enormous message
	if _, err := n.RunUntilIdle(10); err == nil {
		t.Fatal("expected timeout error")
	}
}

// TestSendValidation: bad endpoints and sizes panic (programming errors).
func TestSendValidation(t *testing.T) {
	n := newMeshNet(4, 4, DefaultConfig())
	for _, fn := range []func(){
		func() { n.Send(-1, 0, 1, nil, nil) },
		func() { n.Send(0, 16, 1, nil, nil) },
		func() { n.Send(0, 1, -1, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestZeroByteMessage still carries its header flit end to end.
func TestZeroByteMessage(t *testing.T) {
	n := newMeshNet(4, 4, DefaultConfig())
	w := runOne(t, n, 0, 15, 0)
	if w.Flits() != DefaultConfig().HeaderFlits {
		t.Fatalf("zero-byte message has %d flits", w.Flits())
	}
}

// TestBufferCapacityRespected: with BufFlits=1 a long worm still flows at
// one flit per cycle once the pipeline fills (no throughput loss).
func TestBufferCapacityRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufFlits = 1
	a := runOne(t, newMeshNet(16, 1, cfg), 0, 15, 4000)
	cfg.BufFlits = 8
	b := runOne(t, newMeshNet(16, 1, cfg), 0, 15, 4000)
	if a.ArrivedAt != b.ArrivedAt {
		t.Fatalf("buffer depth changed uncontended latency: %d vs %d", a.ArrivedAt, b.ArrivedAt)
	}
}

// TestPathChannelsMatchesWormPath: the static route predictor agrees with
// what a worm actually acquires on an idle network.
func TestPathChannelsMatchesWormPath(t *testing.T) {
	cfg := DefaultConfig()
	m := mesh.New2D(8, 8)
	n := New(m, cfg)
	w := runOne(t, n, 9, 54, 100)
	want := PathChannels(m, 9, 54)
	got := w.Path()
	if len(got) != len(want) {
		t.Fatalf("path lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path diverges at %d", i)
		}
	}
}

// TestDeadlockReportReusesWaiterBuffer is the regression test for the
// watchdog allocation fix: two successive DeadlockReports must share one
// cached waiter-histogram backing array instead of allocating
// NumChannels() int32s per invocation.
func TestDeadlockReportReusesWaiterBuffer(t *testing.T) {
	topo := mesh.New2D(8, 8)
	n := New(topo, DefaultConfig())
	n.Send(0, 63, 512, nil, nil)
	for i := 0; i < 4; i++ {
		n.Step()
	}
	n.DeadlockReport(4)
	buf1 := n.DeadlockWaitersBuf()
	if buf1 == nil {
		t.Fatal("first DeadlockReport left no cached waiter buffer")
	}
	n.DeadlockReport(4)
	buf2 := n.DeadlockWaitersBuf()
	if &buf1[0] != &buf2[0] {
		t.Fatal("successive DeadlockReports did not reuse the waiter buffer")
	}
}

// deadChannels is a fault model whose listed channels are dead and whose
// other channels are always up, so it reports OnlyDead and the fast
// kernel runs its parking loop under it.
type deadChannels map[ChannelID]bool

func (d deadChannels) Dead(c ChannelID) bool        { return d[c] }
func (d deadChannels) Up(c ChannelID, _ int64) bool { return !d[c] }
func (d deadChannels) OnlyDead() bool               { return true }

// gatedModel hides a fault model's OnlyDead report: embedding the
// FaultModel interface promotes only Dead and Up.
type gatedModel struct{ FaultModel }

// TestDeadOnlyFabricParks pins the fast kernel's loop choice on
// dead-only fabrics. The differential suites catch a gate that lets a
// model which refuses flits park; this test catches a dead-only model
// that never parks. Under a fault model that reports OnlyDead, a worm
// whose path misses the dead channels streams and parks as on a healthy
// fabric. An 8 KB unicast then arrives at the same cycle after exactly
// as many stepped cycles as on the healthy fabric (counted by the step
// hook; skipped cycles do not count), far fewer than its flit count;
// behind gatedModel, the same dead set keeps the flits gated and costs
// at least one stepped cycle per flit.
func TestDeadOnlyFabricParks(t *testing.T) {
	m := mesh.New2D(8, 8)
	const src, dst, bytes = 0, 63, 8 << 10
	onPath := make(map[ChannelID]bool)
	for _, c := range PathChannels(m, src, dst) {
		onPath[c] = true
	}
	dead := deadChannels{}
	for c := ChannelID(0); int(c) < m.NumChannels(); c += 5 {
		if !onPath[c] {
			dead[c] = true
		}
	}
	run := func(f FaultModel) (cycles int, w *Worm) {
		n := New(m, DefaultConfig())
		if f != nil {
			n.SetFaults(f)
		}
		n.SetStepHook(func() { cycles++ })
		w = n.Send(src, dst, bytes, nil, nil)
		for n.Active() > 0 {
			n.StepUntil(1 << 20)
		}
		if err := n.Quiesced(); err != nil {
			t.Fatal(err)
		}
		return cycles, w
	}
	healthy, hw := run(nil)
	got, dw := run(dead)
	gated, _ := run(gatedModel{dead})
	flits := DefaultConfig().Flits(bytes)
	if dw.ArrivedAt != hw.ArrivedAt {
		t.Fatalf("arrival under dead-only faults %d, healthy %d", dw.ArrivedAt, hw.ArrivedAt)
	}
	if got != healthy || 4*healthy > flits {
		t.Fatalf("%d-flit worm took %d stepped cycles under dead-only faults, %d on the healthy fabric; want equal and far below the flit count",
			flits, got, healthy)
	}
	if gated < flits {
		t.Fatalf("gated control took %d stepped cycles for %d flits; the test no longer tells the loops apart", gated, flits)
	}
}

// TestCrossingWormStaysParked: a lone worm crossing a 64×64 mesh corner
// to corner (126 link hops) is parked on every cycle its header crosses
// the fabric, from its first injection until it takes the ejection
// channel, whatever the crossing's period: RouterDelay 0–2 × BufFlits
// {1, 2, 4}. A 4 KB worm is still injecting when its header arrives; a
// 64 B one crosses as a moving train. Its arrival matches the reference
// kernel's.
func TestCrossingWormStaysParked(t *testing.T) {
	m := mesh.New2D(64, 64)
	const src, dst = 0, 64*64 - 1
	for rd := int64(0); rd <= 2; rd++ {
		for _, buf := range []int{1, 2, 4} {
			for _, bytes := range []int{64, 4096} {
				cfg := DefaultConfig()
				cfg.RouterDelay, cfg.BufFlits = rd, buf
				ref := New(m, cfg)
				ref.SetKernel(KernelReference)
				want := runOne(t, ref, src, dst, bytes)
				n := New(m, cfg)
				w := n.Send(src, dst, bytes, nil, nil)
				crossing, parked := 0, 0
				for !w.Done() {
					n.Step()
					path := w.Path()
					if w.Done() || len(path) == 0 || w.InjectedAt == 0 || path[len(path)-1] == m.EjectChannel(dst) {
						continue
					}
					crossing++
					if n.CrossingParked(w) {
						parked++
					}
				}
				if crossing < 126 || parked != crossing {
					t.Errorf("rd%d buf%d %d B: parked on %d of %d crossing cycles", rd, buf, bytes, parked, crossing)
				}
				if w.ArrivedAt != want.ArrivedAt {
					t.Errorf("rd%d buf%d %d B: arrived at %d, reference %d", rd, buf, bytes, w.ArrivedAt, want.ArrivedAt)
				}
			}
		}
	}
}

// TestDeadlockReportCountsHeldChannels: the "routed, draining" and
// "unreachable, frozen holding" lines count the channels the worm still
// holds, not the released prefix of its path. A 2-flit worm crossing a
// 16×1 mesh holds at most two channels once routed, or once frozen at a
// dead link near the far end, while its path is 17 or 12 channels long.
func TestDeadlockReportCountsHeldChannels(t *testing.T) {
	m := mesh.New2D(16, 1)
	route := runOne(t, New(m, DefaultConfig()), 0, 15, 8).Path()
	for _, tc := range []struct {
		name   string
		faults FaultModel
		line   string
	}{
		{"routed", nil, "routed, draining %d channels"},
		{"frozen", deadChannels{route[12]: true}, "unreachable, frozen holding %d channels"},
	} {
		for _, k := range []Kernel{KernelFast, KernelReference} {
			t.Run(fmt.Sprintf("%s/kernel%d", tc.name, k), func(t *testing.T) {
				n := New(m, DefaultConfig())
				n.SetKernel(k)
				if tc.faults != nil {
					n.SetFaults(tc.faults)
				}
				log := &eventLog{}
				n.SetObserver(log)
				w := n.Send(0, 15, 8, nil, nil)
				// Step until routed, or 20 cycles past the freeze so the
				// body has caught up with the frozen header.
				for frozenAt := int64(-1); len(w.Path()) < len(route); n.Step() {
					if n.Err() != nil && frozenAt < 0 {
						frozenAt = n.Now()
					}
					if frozenAt >= 0 && n.Now() >= frozenAt+20 {
						break
					}
				}
				released := 0
				for _, e := range log.events {
					if strings.Contains(e, " rel ") {
						released++
					}
				}
				held := len(w.Path()) - released
				if held > 2 || released == 0 {
					t.Fatalf("worm holds %d of %d channels; scenario too weak", held, len(w.Path()))
				}
				report := n.DeadlockReport(4)
				if want := fmt.Sprintf(tc.line, held); !strings.Contains(report, want) {
					t.Fatalf("report does not say %q:\n%s", want, report)
				}
			})
		}
	}
}
