package mcastsim_test

// The lean runner: the transfer state machine Run, RunConcurrent and
// Unicast ran before they served their multicasts on the Engine. One
// transfer per chain position, its own inject and deliver events, the
// plain split: no deadlines, membership or recovery. It is the
// independent oracle the engine-backed entry points are checked
// against, as the reference kernel checks the fast one.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bmin"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/mcastsim"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// refRun is Run on the lean runner.
func refRun(net *wormhole.Network, tab core.SplitTable, ch chain.Chain, root int, msgBytes int, cfg mcastsim.Config) (mcastsim.Result, error) {
	if err := mcastsim.CheckInput(net, tab, ch, root, msgBytes); err != nil {
		return mcastsim.Result{}, fmt.Errorf("mcastsim: %w", err)
	}
	if err := net.Quiesced(); err != nil {
		return mcastsim.Result{}, fmt.Errorf("mcastsim: fabric not idle: %w", err)
	}

	events := new(sim.EventQueue)
	events.Reserve(len(ch))
	r := newRunner(net, tab, ch, msgBytes, cfg, events, net.Now())
	var planErr error
	r.onPlanErr = func(err error) {
		if planErr == nil {
			planErr = err
		}
	}
	r.deliver(root, chain.Segment{L: 0, R: len(ch) - 1}, r.t0)
	if planErr != nil {
		return mcastsim.Result{}, planErr
	}

	max := cfg.MaxCycles
	if max <= 0 {
		max = mcastsim.SafetyNet(net, msgBytes, cfg.AddrBytes, len(ch), r.tSend+r.tRecv+r.tHold) + 1<<20
	}

	stats, err := mcastsim.Drive(net, r.events, r.t0+max, mcastsim.NewWatchdog(net, cfg))
	if planErr != nil {
		return mcastsim.Result{}, planErr
	}
	if err != nil {
		return mcastsim.Result{}, fmt.Errorf("mcastsim: %w", err)
	}
	for i, d := range r.res.Deliveries {
		if d < 0 {
			return mcastsim.Result{}, fmt.Errorf("mcastsim: chain position %d (node %d) never received the message", i, ch[i])
		}
	}

	r.res.Worms = stats.Worms
	r.res.BlockedCycles = stats.BlockedCycles
	r.res.InjectWaitCycles = stats.InjectWaitCycles
	r.res.Cycles = stats.Cycles
	return r.res, nil
}

// refRunConcurrent is RunConcurrent on the lean runner.
func refRunConcurrent(net *wormhole.Network, groups []mcastsim.Group, cfg mcastsim.Config) ([]mcastsim.GroupResult, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("mcastsim: no groups")
	}
	if err := net.Quiesced(); err != nil {
		return nil, fmt.Errorf("mcastsim: fabric not idle: %w", err)
	}
	seen := make(map[int]int)
	for gi, g := range groups {
		if err := mcastsim.CheckInput(net, g.Tab, g.Chain, g.Root, g.Bytes); err != nil {
			return nil, fmt.Errorf("mcastsim: group %d: %w", gi, err)
		}
		if g.StartAt < 0 {
			return nil, fmt.Errorf("mcastsim: group %d: negative start %d", gi, g.StartAt)
		}
		for _, a := range g.Chain {
			if prev, dup := seen[a]; dup {
				return nil, fmt.Errorf("mcastsim: node %d appears in groups %d and %d (groups must be disjoint)", a, prev, gi)
			}
			seen[a] = gi
		}
	}

	var events sim.EventQueue
	var planErr error
	t0 := net.Now()
	runners := make([]*runner, len(groups))
	results := make([]mcastsim.GroupResult, len(groups))
	for gi, g := range groups {
		r := newRunner(net, g.Tab, g.Chain, g.Bytes, cfg, &events, t0+g.StartAt)
		r.onPlanErr = func(err error) {
			if planErr == nil {
				planErr = err
			}
		}
		runners[gi] = r
		results[gi].StartAt = g.StartAt
	}
	for gi, g := range groups {
		r := runners[gi]
		root, seg := g.Root, chain.Segment{L: 0, R: len(g.Chain) - 1}
		events.At(r.t0, func() { r.deliver(root, seg, r.t0) })
	}

	max := cfg.MaxCycles
	if max <= 0 {
		max = 1 << 20
		for gi, g := range groups {
			r := runners[gi]
			max += mcastsim.SafetyNet(net, g.Bytes, cfg.AddrBytes, len(g.Chain), r.tSend+r.tRecv+r.tHold) + g.StartAt
		}
	}

	stats, err := mcastsim.Drive(net, &events, t0+max, mcastsim.NewWatchdog(net, cfg))
	if planErr != nil {
		return nil, planErr
	}
	if err != nil {
		return nil, fmt.Errorf("mcastsim: concurrent batch: %w", err)
	}

	var expect int64
	for gi, r := range runners {
		for i, d := range r.res.Deliveries {
			if d < 0 {
				return nil, fmt.Errorf("mcastsim: group %d position %d never delivered", gi, i)
			}
		}
		results[gi].Result = r.res
		expect += int64(len(groups[gi].Chain) - 1)
	}
	if stats.Worms != expect {
		return nil, fmt.Errorf("mcastsim: %d worms completed, want %d", stats.Worms, expect)
	}
	for gi := range results {
		results[gi].BlockedCycles = stats.BlockedCycles
		results[gi].InjectWaitCycles = stats.InjectWaitCycles
		results[gi].Cycles = stats.Cycles
		results[gi].Worms = int64(len(groups[gi].Chain) - 1)
	}
	return results, nil
}

// refUnicast is Unicast on the lean runner, planned by the two-node OPT
// table as before.
func refUnicast(net *wormhole.Network, src, dst int, msgBytes int, cfg mcastsim.Config) (int64, error) {
	ch := chain.Chain{src, dst}
	if src == dst {
		return 0, fmt.Errorf("mcastsim: unicast endpoints must differ")
	}
	res, err := refRun(net, core.NewOptTable(2, 1, 1), ch, 0, msgBytes, cfg)
	if err != nil {
		return 0, err
	}
	return res.Latency, nil
}

type runner struct {
	net       *wormhole.Network
	tab       core.SplitTable
	ch        chain.Chain
	bytes     int
	cfg       mcastsim.Config
	events    *sim.EventQueue
	res       mcastsim.Result
	t0        int64
	onPlanErr func(error)

	tSend, tRecv, tHold int64
	// xfers holds the one transfer each chain position receives by;
	// sends holds one delivery's plan at a time.
	xfers []transfer
	sends []plan.Send
}

func newRunner(net *wormhole.Network, tab core.SplitTable, ch chain.Chain, msgBytes int, cfg mcastsim.Config, q *sim.EventQueue, t0 int64) *runner {
	r := &runner{
		net:    net,
		tab:    tab,
		ch:     ch,
		bytes:  msgBytes,
		cfg:    cfg,
		events: q,
		res:    mcastsim.Result{Deliveries: make([]int64, len(ch))},
		t0:     t0,
		tSend:  cfg.Software.Send.At(msgBytes),
		tRecv:  cfg.Software.Recv.At(msgBytes),
		tHold:  cfg.Software.Hold.At(msgBytes),
		xfers:  make([]transfer, len(ch)),
		sends:  make([]plan.Send, 0, len(ch)),
	}
	for i := range r.res.Deliveries {
		r.res.Deliveries[i] = -1
		r.xfers[i] = transfer{r: r, to: i}
	}
	return r
}

// transfer is the one message that delivers chain position to: the
// worm's Tag and the Handler of the message's two events.
type transfer struct {
	r        *runner
	from, to int
	seg      chain.Segment // the positions to becomes responsible for
}

const (
	evInject = iota
	evDeliver
)

func (x *transfer) Fire(at int64, kind int) {
	r := x.r
	if kind == evDeliver {
		r.deliver(x.to, x.seg, at)
		return
	}
	bytes := r.bytes + r.cfg.AddrBytes*(x.seg.Len()-1)
	r.net.Send(wormhole.NodeID(r.ch[x.from]), wormhole.NodeID(r.ch[x.to]), bytes, x, arrived)
}

// arrived starts the receiver's software receive when the tail flit is
// consumed.
func arrived(w *wormhole.Worm, now int64) {
	x := w.Tag.(*transfer)
	x.r.events.Schedule(now+x.r.tRecv, x, evDeliver)
}

// deliver records that the node at chain index self has the message and
// responsibility for seg at time t, and schedules its sends t_hold
// apart.
func (r *runner) deliver(self int, seg chain.Segment, t int64) {
	r.res.Deliveries[self] = t - r.t0
	if lat := t - r.t0; lat > r.res.Latency {
		r.res.Latency = lat
	}
	sends, err := plan.Sends(r.sends[:0], r.tab, seg, self)
	if err != nil {
		r.onPlanErr(err)
		return
	}
	for i, snd := range sends {
		x := &r.xfers[snd.To]
		x.from, x.seg = self, snd.Seg
		r.events.Schedule(t+int64(i)*r.tHold+r.tSend, x, evInject)
	}
}

// sameRun compares one entry point's outcome with the reference's on
// twin fabrics: equal results and error texts, and after a successful
// run the same clock and fabric counters.
func sameRun[R any](t *testing.T, name string, net, refNet *wormhole.Network, got, want R, err, refErr error) {
	t.Helper()
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("%s: err = %v, reference %v", name, err, refErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs from the reference:\n got %+v\nwant %+v", name, got, want)
	}
	if net.Now() != refNet.Now() || net.Stats() != refNet.Stats() {
		t.Fatalf("%s: fabric ends at cycle %d with %+v, reference at %d with %+v", name, net.Now(), net.Stats(), refNet.Now(), refNet.Stats())
	}
}

// TestRunMatchesReference runs Run and Unicast against the lean runner over the Figure 2,
// 2b and 3 and BMIN-2 configurations: the 16x16 mesh and the 128-node
// BMIN; OPT, U and OPT-tree tables; ordered and unordered chains;
// address bytes 0 and 8. Each pair of runs starts on twin fabrics that
// have both run the previous pair.
func TestRunMatchesReference(t *testing.T) {
	soft := model.DefaultSoftware()
	m := mesh.New2D(16, 16)
	b := bmin.New(128, bmin.AscentStraight)
	fabrics := []struct {
		name string
		topo wormhole.Topology
		less func(a, b int) bool
		ks   []int
	}{
		{"mesh", m, m.DimOrderLess, []int{4, 32, 128, 256}},
		{"bmin", b, b.LexLess, []int{8, 32}},
	}
	type algo struct {
		name    string
		ordered bool
		table   func(k int, thold, tend int64) core.SplitTable
	}
	algos := []algo{
		{"U", true, func(k int, _, _ int64) core.SplitTable { return core.BinomialTable{Max: k} }},
		{"OPT-tree", false, func(k int, thold, tend int64) core.SplitTable { return core.NewOptTable(k, thold, tend) }},
		{"OPT", true, func(k int, thold, tend int64) core.SplitTable { return core.NewOptTable(k, thold, tend) }},
	}
	runs := 0
	for _, f := range fabrics {
		net := wormhole.New(f.topo, wormhole.DefaultConfig())
		refNet := wormhole.New(f.topo, wormhole.DefaultConfig())
		for _, bytes := range []int{0, 4096, 65536} {
			for _, addrBytes := range []int{0, 8} {
				cfg := mcastsim.Config{Software: soft, AddrBytes: addrBytes}
				name := fmt.Sprintf("%s/%dB/addr%d", f.name, bytes, addrBytes)
				last := f.topo.NumNodes() - 1
				tend, err := mcastsim.Unicast(net, 0, last, bytes, cfg)
				refTEnd, refErr := refUnicast(refNet, 0, last, bytes, cfg)
				sameRun(t, name+"/unicast", net, refNet, tend, refTEnd, err, refErr)
				thold := soft.Hold.At(bytes)
				for _, k := range f.ks {
					for trial := uint64(0); trial < 2; trial++ {
						addrs := sim.NewRNG(trial*131+uint64(k)).Sample(f.topo.NumNodes(), k)
						for _, a := range algos {
							ch := chain.Unordered(addrs)
							if a.ordered {
								ch = chain.New(addrs, f.less)
							}
							root, _ := ch.Index(addrs[0])
							tab := a.table(k, thold, tend)
							run := fmt.Sprintf("%s/k%d/%s/trial%d", name, k, a.name, trial)
							got, err := mcastsim.Run(net, tab, ch, root, bytes, cfg)
							want, refErr := refRun(refNet, tab, ch, root, bytes, cfg)
							sameRun(t, run, net, refNet, got, want, err, refErr)
							runs++
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs matched the reference", runs)
}

// TestRunConcurrentMatchesReference runs staggered batches of disjoint
// groups, each with its own table, size and start, against the lean
// runner.
func TestRunConcurrentMatchesReference(t *testing.T) {
	soft := model.DefaultSoftware()
	m := mesh.New2D(16, 16)
	net := wormhole.New(m, wormhole.DefaultConfig())
	refNet := wormhole.New(m, wormhole.DefaultConfig())
	for seed := uint64(1); seed <= 4; seed++ {
		for _, addrBytes := range []int{0, 8} {
			cfg := mcastsim.Config{Software: soft, AddrBytes: addrBytes}
			nodes := sim.NewRNG(seed).Sample(m.NumNodes(), 4*24)
			var groups []mcastsim.Group
			for gi := 0; gi < 4; gi++ {
				addrs := nodes[gi*24 : gi*24+8+4*gi]
				bytes := 1024 << gi
				tab := core.SplitTable(core.NewOptTable(len(addrs), soft.Hold.At(bytes), 3*soft.Hold.At(bytes)))
				ch := chain.New(addrs, m.DimOrderLess)
				if gi%2 == 1 {
					tab, ch = core.BinomialTable{Max: len(addrs)}, chain.Unordered(addrs)
				}
				root, _ := ch.Index(addrs[0])
				groups = append(groups, mcastsim.Group{Tab: tab, Chain: ch, Root: root, Bytes: bytes, StartAt: int64(gi) * 1500 * int64(seed-1)})
			}
			name := fmt.Sprintf("seed%d/addr%d", seed, addrBytes)
			got, err := mcastsim.RunConcurrent(net, groups, cfg)
			want, refErr := refRunConcurrent(refNet, groups, cfg)
			sameRun(t, name, net, refNet, got, want, err, refErr)
		}
	}
}

// TestPlanErrorMatchesReference: a chain table cannot plan from a
// mid-chain source; Run and RunConcurrent return the planner's error as
// the reference does.
func TestPlanErrorMatchesReference(t *testing.T) {
	m := mesh.New2D(4, 4)
	tab := core.ChainTable{Max: 8}
	ch := chain.Chain{0, 1, 2, 3, 4, 5, 6, 7}
	cfg := mcastsim.Config{Software: testSoft}
	net, refNet := wormhole.New(m, wormhole.DefaultConfig()), wormhole.New(m, wormhole.DefaultConfig())
	got, err := mcastsim.Run(net, tab, ch, 4, 64, cfg)
	want, refErr := refRun(refNet, tab, ch, 4, 64, cfg)
	if err == nil {
		t.Fatal("Run planned from a mid-chain source with a chain table")
	}
	sameRun(t, "Run", net, refNet, got, want, err, refErr)

	groups := []mcastsim.Group{
		{Tab: core.BinomialTable{Max: 4}, Chain: chain.Chain{8, 9, 10, 11}, Bytes: 64},
		{Tab: tab, Chain: ch, Root: 4, Bytes: 64, StartAt: 100},
	}
	net, refNet = wormhole.New(m, wormhole.DefaultConfig()), wormhole.New(m, wormhole.DefaultConfig())
	gotC, err := mcastsim.RunConcurrent(net, groups, cfg)
	wantC, refErr := refRunConcurrent(refNet, groups, cfg)
	if err == nil {
		t.Fatal("RunConcurrent planned from a mid-chain source with a chain table")
	}
	sameRun(t, "RunConcurrent", net, refNet, gotC, wantC, err, refErr)
}

// TestHealthyMatchesMcastsim: on a fault-free fabric the recovery layer
// must execute the exact multicast the lean runner executes — same
// deliveries, same latency, same worm count, zero recovery actions. The
// per-send deadlines and orphan machinery must be pure bookkeeping until
// something actually fails.
func TestHealthyMatchesMcastsim(t *testing.T) {
	m := mesh.New2D(8, 8)
	const k, bytes = 12, 1024
	addrs := sim.NewRNG(7).Sample(m.NumNodes(), k)
	ch := chain.New(addrs, m.DimOrderLess)
	root, _ := ch.Index(addrs[0])
	cfg := mcastsim.Config{Software: testSoft}
	tend, err := refUnicast(wormhole.New(m, wormhole.DefaultConfig()), addrs[0], addrs[k-1], bytes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	thold := testSoft.Hold.At(bytes)

	for _, tab := range []core.SplitTable{
		core.BinomialTable{Max: k},
		core.NewOptTable(k, thold, tend),
	} {
		base, err := refRun(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, bytes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mcastsim.RunReliable(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, bytes, mcastsim.ReliableConfig{Sim: cfg, TEnd: tend})
		if err != nil {
			t.Fatal(err)
		}
		if got.Latency != base.Latency || got.Worms != base.Worms || got.Cycles != base.Cycles ||
			got.BlockedCycles != base.BlockedCycles || got.InjectWaitCycles != base.InjectWaitCycles {
			t.Fatalf("healthy run diverges from the reference:\n got %+v\nbase %+v", got, base)
		}
		if !reflect.DeepEqual(got.Deliveries, base.Deliveries) {
			t.Fatalf("healthy deliveries diverge:\n got %v\nbase %v", got.Deliveries, base.Deliveries)
		}
		oh := got.Overhead
		if oh.Retransmits != 0 || oh.Cancelled != 0 || oh.RepairSends != 0 || oh.OrphanSends != 0 || oh.Repairs != 0 {
			t.Fatalf("healthy run performed recovery actions: %+v", oh)
		}
		if oh.Sends != got.Worms {
			t.Fatalf("Sends=%d but Worms=%d on a healthy run", oh.Sends, got.Worms)
		}
		if got.Delivered != k-1 || got.Abandoned != 0 || got.FallbackAt != -1 {
			t.Fatalf("healthy outcome wrong: %+v", got)
		}
		for i, s := range got.Status {
			if s != mcastsim.StatusDelivered {
				t.Fatalf("healthy status[%d] = %v", i, s)
			}
		}
	}
}
