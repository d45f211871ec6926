// Benchmarks regenerating every figure of the paper plus the simulator
// micro-benchmarks. Figure benches run the real experiment pipeline
// (calibration, placement, flit-level simulation, aggregation) with a
// reduced trial count so `go test -bench=.` completes in minutes; the
// full 16-trial figures are produced by cmd/mcastbench.
package repro_test

import (
	"testing"

	"repro"
	"repro/internal/bmin"
	"repro/internal/chain"
	"repro/internal/exp"
	"repro/internal/mcastsim"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/wormhole"
)

const benchTrials = 2 // cmd/mcastbench uses the paper's 16

func benchMeshSuite() *exp.Suite {
	s := exp.DefaultSuite(exp.MeshPlatform(16, 16, wormhole.DefaultConfig()))
	s.Trials = benchTrials
	return s
}

func benchBMINSuite() *exp.Suite {
	s := exp.DefaultSuite(exp.BMINPlatform(128, bmin.AscentStraight, wormhole.DefaultConfig()))
	s.Trials = benchTrials
	return s
}

// BenchmarkOptTreeDP measures Algorithm 2.1 itself: the O(k) dynamic
// program behind every figure (and the Figure 1 example).
func BenchmarkOptTreeDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		repro.NewOptTable(65536, 20, 55)
	}
}

// BenchmarkFigure1 evaluates the paper's worked example analytically.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := repro.Figure1()
		if err != nil || f.OptLatency != 130 {
			b.Fatal("figure 1 broken")
		}
	}
}

// BenchmarkFigure2 regenerates the 32-node message-size sweep on the
// 16x16 mesh (U-mesh / OPT-tree / OPT-mesh).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure2(benchMeshSuite()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2b regenerates the 128-node variant of Figure 2.
func BenchmarkFigure2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure2b(benchMeshSuite()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates the 4-KB node-count sweep on the mesh.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure3(benchMeshSuite()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBMINSize regenerates the BMIN message-size sweep (U-min /
// OPT-tree / OPT-min).
func BenchmarkBMINSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.BMINSizes(benchBMINSuite()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBMINNodes regenerates the BMIN node-count sweep.
func BenchmarkBMINNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.BMINNodes(benchBMINSuite()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentionAblation quantifies Section 5's "contention less
// severe on the BMIN" claim.
func BenchmarkContentionAblation(b *testing.B) {
	sizes := []int{4096, 32768}
	for i := 0; i < b.N; i++ {
		if _, err := exp.ContentionComparison(benchMeshSuite(), benchBMINSuite(), 32, sizes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRatioAblation sweeps the t_hold/t_end ratio analytically.
func BenchmarkRatioAblation(b *testing.B) {
	ratios := []float64{0.01, 0.05, 0.1, 0.2, 0.36, 0.5, 0.75, 1.0}
	for i := 0; i < b.N; i++ {
		exp.RatioAblation(256, 1000, ratios)
	}
}

// BenchmarkAddrPayloadAblation measures the address-list payload cost.
func BenchmarkAddrPayloadAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AddrAblation(benchMeshSuite(), 32, 4096, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyAblation compares BMIN ascent policies.
func BenchmarkPolicyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.PolicyAblation(128, wormhole.DefaultConfig(), model.DefaultSoftware(), benchTrials, 1997, 32, 4096, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkButterflyTemporal runs experiment E1 on the unidirectional
// butterfly.
func BenchmarkButterflyTemporal(b *testing.B) {
	sizes := []int{4096, 32768}
	for i := 0; i < b.N; i++ {
		s := exp.DefaultSuite(exp.ButterflyPlatform(128, wormhole.DefaultConfig()))
		s.Trials = benchTrials
		if _, err := exp.ButterflyTemporal(s, 32, sizes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHypercube runs experiment H1 (U-cube vs OPT-cube on a
// 256-node hypercube).
func BenchmarkHypercube(b *testing.B) {
	sizes := []int{4096, 32768}
	for i := 0; i < b.N; i++ {
		s := exp.DefaultSuite(exp.HypercubePlatform(8, wormhole.DefaultConfig()))
		s.Trials = benchTrials
		if _, err := exp.HypercubeSizes(s, 32, sizes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentInterference runs experiment C1 (simultaneous
// multicasts interfering through the shared fabric).
func BenchmarkConcurrentInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.ConcurrentInterference(benchMeshSuite(), []int{1, 2, 4}, 16, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelValidation runs experiment M1 (analytic vs simulated).
func BenchmarkModelValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.ModelValidation(benchMeshSuite(), []int{8, 32, 128}, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastCrossover runs experiment B4 (tree vs
// scatter-collect full broadcast).
func BenchmarkBroadcastCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.DefaultSuite(exp.MeshPlatform(8, 8, wormhole.DefaultConfig()))
		if _, err := exp.BroadcastCrossover(s, []int{4096, 1 << 18}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTorus runs experiment T1 (multicast trees on a wrap-around
// torus with dateline virtual channels).
func BenchmarkTorus(b *testing.B) {
	sizes := []int{4096, 32768}
	for i := 0; i < b.N; i++ {
		s := exp.DefaultSuite(exp.TorusPlatform(16, 16, wormhole.DefaultConfig()))
		s.Trials = benchTrials
		if _, err := exp.TorusSizes(s, 32, sizes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTemporalTuning runs experiment E2 (search-based §6 tuning on
// the butterfly).
func BenchmarkTemporalTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.DefaultSuite(exp.ButterflyPlatform(64, wormhole.DefaultConfig()))
		s.Trials = benchTrials
		if _, err := exp.TemporalTuning(s, 20, 4096, 150); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaticChecker measures the static contention verifier on a
// 64-node OPT-mesh schedule.
func BenchmarkStaticChecker(b *testing.B) {
	m := repro.NewMesh2D(16, 16)
	k := &repro.ContentionChecker{Topo: m, Software: repro.DefaultSoftware(), Slack: 100}
	addrs := make([]int, 64)
	for i := range addrs {
		addrs[i] = i * 4
	}
	ch := repro.NewChain(addrs, m.DimOrderLess)
	tab := repro.NewOptTable(64, 1014, 2500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conflicts, err := k.Check(tab, ch, 0, 4096, 1014, 2500)
		if err != nil {
			b.Fatal(err)
		}
		if len(conflicts) != 0 {
			b.Fatal("unexpected conflicts")
		}
	}
}

// BenchmarkUnicast64KB measures raw fabric throughput: one 64 KB worm
// across the mesh diagonal, reported in flit events per second.
func BenchmarkUnicast64KB(b *testing.B) {
	m := repro.NewMesh2D(16, 16)
	cfg := repro.DefaultFabricConfig()
	var events int64
	for i := 0; i < b.N; i++ {
		n := repro.NewNetwork(m, cfg)
		n.Send(0, 255, 65536, nil, nil)
		if _, err := n.RunUntilIdle(1 << 22); err != nil {
			b.Fatal(err)
		}
		events += n.Stats().FlitHops
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "flit-events/s")
}

// BenchmarkMulticastOptMesh measures one full 32-node 4 KB OPT-mesh
// multicast, the workhorse of Figures 2 and 3.
func BenchmarkMulticastOptMesh(b *testing.B) {
	m := repro.NewMesh2D(16, 16)
	cfg := repro.DefaultFabricConfig()
	soft := repro.DefaultSoftware()
	runCfg := repro.RunConfig{Software: soft}
	tend, err := repro.MeasureUnicast(repro.NewNetwork(m, cfg), 0, 90, 4096, runCfg)
	if err != nil {
		b.Fatal(err)
	}
	tab := repro.NewOptTable(32, soft.Hold.At(4096), tend)
	addrs := make([]int, 32)
	for i := range addrs {
		addrs[i] = i * 8
	}
	ch := repro.NewChain(addrs, m.DimOrderLess)
	root, _ := ch.Index(addrs[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.RunMulticast(repro.NewNetwork(m, cfg), tab, ch, root, 4096, runCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// stepKernelFunnel drives the contention-heavy kernel workload: every
// other node sends 1 KB to node 0 simultaneously, so the one-port
// ejection serializes 255 worms and almost the whole fabric sits in
// blocked/inject-wait state for tens of thousands of cycles — the regime
// the stall-aware kernel's cached scheduling targets. The network (and
// with recycling, its worm pool) is reused across iterations, so
// steady-state allocs/op measures the Send+Step path itself.
func stepKernelFunnel(b *testing.B, k repro.Kernel, recycle bool) {
	m := repro.NewMesh2D(16, 16)
	n := repro.NewNetwork(m, repro.DefaultFabricConfig())
	n.SetKernel(k)
	n.SetRecycling(recycle)
	round := func() {
		for src := 1; src < m.NumNodes(); src++ {
			n.Send(repro.NodeID(src), 0, 1024, nil, nil)
		}
		if _, err := n.RunUntilIdle(1 << 24); err != nil {
			b.Fatal(err)
		}
	}
	// Prime the worm pool twice: the first round fills the free list, the
	// second settles the pooled slices' capacities under the recycled
	// worm-to-route mapping, so allocs/op reflects steady state.
	round()
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	hops := n.Stats().FlitHops * int64(b.N) / int64(b.N+2) // exclude the priming rounds
	b.ReportMetric(float64(hops)/b.Elapsed().Seconds(), "flit-hops/s")
}

// stepKernelStall is the cycle-skipping showcase: a slow router
// (RouterDelay 256) makes every hop a long full-network stall once the
// header's upstream buffers fill, so nearly all simulated time is spent
// in cycles where nothing can move. The stall-aware kernel jumps those
// stretches in O(1); the reference kernel walks them cycle by cycle.
func stepKernelStall(b *testing.B, k repro.Kernel) {
	m := repro.NewMesh2D(16, 16)
	cfg := repro.DefaultFabricConfig()
	cfg.RouterDelay = 256
	n := repro.NewNetwork(m, cfg)
	n.SetKernel(k)
	n.SetRecycling(true)
	round := func() {
		for i := 0; i < 16; i++ {
			n.Send(repro.NodeID(i), repro.NodeID(m.NumNodes()-1-i), 256, nil, nil)
		}
		if _, err := n.RunUntilIdle(1 << 24); err != nil {
			b.Fatal(err)
		}
	}
	round()
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	cycles := n.Stats().Cycles * int64(b.N) / int64(b.N+2)
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkStepKernel compares the two scheduling kernels on a
// contention-heavy funnel and a stall-heavy slow-router workload; the
// fast/reference ns/op ratios are the headline numbers in
// BENCH_kernel.json. The scatter leg is the bench gate's zero-alloc
// check on a reused 64x64 network.
func BenchmarkStepKernel(b *testing.B) {
	b.Run("funnel/fast", func(b *testing.B) { stepKernelFunnel(b, repro.KernelFast, true) })
	b.Run("funnel/reference", func(b *testing.B) { stepKernelFunnel(b, repro.KernelReference, false) })
	b.Run("funnel/reference-recycled", func(b *testing.B) { stepKernelFunnel(b, repro.KernelReference, true) })
	b.Run("stall/fast", func(b *testing.B) { stepKernelStall(b, repro.KernelFast) })
	b.Run("stall/reference", func(b *testing.B) { stepKernelStall(b, repro.KernelReference) })
	b.Run("scatter/fast", stepKernelScatter)
}

// stepKernelScatter drives a wide workload on a 64x64 mesh: 256
// sources spread over every row band exchange 1 KB with the node 32
// rows away, so flits move all over the fabric at once. Every route has
// the same length (32 column hops plus inject/eject): the worm pool
// hands objects out in completion order, which permutes the
// worm-to-route pairing between rounds, and equal-length routes keep
// that permutation from ever needing a larger path buffer. The network
// (and pool) is reused across rounds; after two priming rounds the fast
// kernel must run allocation-free.
func stepKernelScatter(b *testing.B) {
	m := repro.NewMesh2D(64, 64)
	n := repro.NewNetwork(m, repro.DefaultFabricConfig())
	n.SetRecycling(true)
	round := func() {
		for r := 0; r < 32; r += 4 {
			for c := 0; c < 64; c += 4 {
				top := repro.NodeID(r*64 + c)
				bot := repro.NodeID((r+32)*64 + c)
				n.Send(top, bot, 1024, nil, nil)
				n.Send(bot, top, 1024, nil, nil)
			}
		}
		if _, err := n.RunUntilIdle(1 << 24); err != nil {
			b.Fatal(err)
		}
	}
	round()
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	hops := n.Stats().FlitHops * int64(b.N) / int64(b.N+2)
	b.ReportMetric(float64(hops)/b.Elapsed().Seconds(), "flit-hops/s")
}

// scaleMulticast measures one 64-node 4 KB OPT multicast on a large
// fabric. The network is built once and reused: fabric construction
// (millions of channels) would otherwise dominate the numbers. The
// group is either fixed, 64 evenly spaced nodes, or, when varied, drawn
// afresh with seed i+1 for iteration i, as bench/'s mcast-1m workload
// draws one per op: a fixed group keeps its channels cache- and
// TLB-resident from one iteration to the next, a varied one does not.
// Untimed multicasts run first, so that the record `make bench` takes
// at one iteration measures a multicast on a network in steady state.
// The first grows the worm pool and the channel-owner set, and after it
// the pool still hands some worms routes longer than their slices hold,
// which regrows them. A fixed group's routes settle after three
// multicasts. A varied group's keep regrowing slices until the pool has
// seen routes near the longest, so the varied leg warms up on 32 groups
// of seeds the timed loop never draws: with 3 its one-iteration record
// read 55,864 B/op and 23 allocs/op, with 32 it reads 19,000 and 19.
func scaleMulticast(b *testing.B, n *repro.Network, less func(x, y int) bool, nodes int, varied bool) {
	soft := repro.DefaultSoftware()
	runCfg := repro.RunConfig{Software: soft}
	n.SetRecycling(true)
	tend, err := repro.MeasureUnicast(n, 0, nodes-1, 4096, runCfg)
	if err != nil {
		b.Fatal(err)
	}
	const k = 64
	tab := repro.NewOptTable(k, soft.Hold.At(4096), tend)
	addrs := make([]int, k)
	for i := range addrs {
		addrs[i] = i * (nodes / k)
	}
	ch := repro.NewChain(addrs, less)
	multicast := func(seed uint64) {
		if varied {
			addrs = sim.NewRNG(seed).Sample(nodes, k)
			ch = repro.NewChain(addrs, less)
		}
		root, _ := ch.Index(addrs[0])
		if _, err := repro.RunMulticast(n, tab, ch, root, 4096, runCfg); err != nil {
			b.Fatal(err)
		}
	}
	warmups := uint64(3)
	if varied {
		warmups = 32
	}
	for j := range warmups {
		multicast(^j) // the timed loop draws seeds 1 to b.N
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multicast(uint64(i) + 1)
	}
}

// BenchmarkScale exercises the roadmap's large fabrics: a single OPT
// multicast on the 1024x1024 mesh (1M nodes), to a fixed group and to a
// fresh group per iteration (the mcast-1m shape), and on the 65536-node
// BMIN, plus an F3-style open-system traffic cell on a 64x64 mesh.
// These are the "interactive speed" numbers recorded in
// BENCH_kernel.json.
func BenchmarkScale(b *testing.B) {
	cfg := repro.DefaultFabricConfig()
	b.Run("mesh1024x1024/serial", func(b *testing.B) {
		m := repro.NewMesh2D(1024, 1024)
		scaleMulticast(b, repro.NewNetwork(m, cfg), m.DimOrderLess, m.NumNodes(), false)
	})
	b.Run("mesh1024x1024/varied", func(b *testing.B) {
		m := repro.NewMesh2D(1024, 1024)
		scaleMulticast(b, repro.NewNetwork(m, cfg), m.DimOrderLess, m.NumNodes(), true)
	})
	b.Run("bmin65536/serial", func(b *testing.B) {
		t := bmin.New(1<<16, bmin.AscentStraight)
		scaleMulticast(b, repro.NewNetwork(t, cfg), t.LexLess, 1<<16, false)
	})
	b.Run("traffic64x64/serial", func(b *testing.B) {
		m := repro.NewMesh2D(64, 64)
		soft := repro.DefaultSoftware()
		runCfg := repro.RunConfig{Software: soft}
		tend, err := repro.MeasureUnicast(repro.NewNetwork(m, cfg), 0, m.NumNodes()-1, 4096, runCfg)
		if err != nil {
			b.Fatal(err)
		}
		opt := exp.Opt("OPT")
		for i := 0; i < b.N; i++ {
			n := repro.NewNetwork(m, cfg)
			n.SetRecycling(true)
			_, err := traffic.Run(n, traffic.Config{
				Software: soft,
				Arrival:  traffic.ArrivalSpec{Kind: traffic.ArrivalPoisson, RatePerMcycle: 100},
				Load:     traffic.Workload{Ks: []int{8, 16}, Sizes: []int{4096}},
				Admit:    traffic.Admission{Policy: traffic.AdmissionFIFO, MaxInFlight: 4},
				Requests: 96, Warmup: 16,
				Less: m.DimOrderLess,
				Plan: opt.Table,
				TEnd: func(int) model.Time { return tend },
				Seed: 1997,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServe measures the delivery engine on its own: each op
// serves 64 requests of 32 members and 1 KB, one after another, on one
// mcastsim.NewEngine over a 16x16 mesh, driving each to idle. OPT on a
// dimension-ordered chain is contention-free on the mesh (Theorem 1)
// and the requests never overlap, so no worm ever waits for a channel
// (checked), and the kernel's work per send is the least it can be.
// The plain leg arms no deadline (TEnd 0); the reliable leg arms one
// per send at 3 t_end, which every send meets (checked), so the two
// legs differ by the deadlines' cost. After warm-up both legs make five
// allocations per request, 320 per op, and none per send.
func BenchmarkServe(b *testing.B) {
	b.Run("plain", func(b *testing.B) { serveRequests(b, false) })
	b.Run("reliable", func(b *testing.B) { serveRequests(b, true) })
}

func serveRequests(b *testing.B, reliable bool) {
	const k, bytes, requests = 32, 1024, 64
	m := repro.NewMesh2D(16, 16)
	soft := repro.DefaultSoftware()
	tend, err := repro.MeasureUnicast(repro.NewNetwork(m, repro.DefaultFabricConfig()), 0, m.NumNodes()-1, bytes, repro.RunConfig{Software: soft})
	if err != nil {
		b.Fatal(err)
	}
	tab := repro.NewOptTable(k, soft.Hold.At(bytes), tend)
	cfg := mcastsim.ReliableConfig{Sim: mcastsim.Config{Software: soft}}
	if reliable {
		cfg.TEnd = tend
	}
	chains, roots := make([]chain.Chain, requests), make([]int, requests)
	for i := range chains {
		addrs := sim.NewRNG(uint64(i)+1).Sample(m.NumNodes(), k)
		chains[i] = chain.New(addrs, m.DimOrderLess)
		roots[i], _ = chains[i].Index(addrs[0])
	}
	net := repro.NewNetwork(m, repro.DefaultFabricConfig())
	net.SetRecycling(true)
	var q sim.EventQueue
	e := mcastsim.NewEngine(net, &q, sim.NewRNG(1))
	var served, delivered, retransmits int64
	done := func(_ int64, res mcastsim.ReliableResult) {
		served++
		delivered += int64(res.Delivered)
		retransmits += res.Overhead.Retransmits
	}
	op := func() {
		for i, ch := range chains {
			e.Serve(net.Now(), tab, ch, roots[i], bytes, cfg, done)
			st, err := mcastsim.Drive(net, &q, net.Now()+1<<30, e)
			if err != nil {
				b.Fatal(err)
			}
			if st.BlockedCycles != 0 {
				b.Fatalf("request %d: %d blocked cycles on a fabric where no worm may contend", i, st.BlockedCycles)
			}
		}
	}
	op()
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if want := int64(requests * (b.N + 2)); served != want || delivered != want*(k-1) || retransmits != 0 {
		b.Fatalf("%d requests served, %d deliveries, %d retransmits; want %d, %d, 0", served, delivered, retransmits, want, want*(k-1))
	}
}

// BenchmarkPlanSends measures the planner's per-node work: plan.Tree
// expands the full 1024-node OPT tree by calling plan.Sends, the step
// every receiving node runs in mcastsim, once per node.
func BenchmarkPlanSends(b *testing.B) {
	tab := repro.NewOptTable(1024, 20, 55)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := plan.Tree(tab, chain.Segment{L: 0, R: 1023}, 0)
		if err != nil || tree.Size() != 1024 {
			b.Fatal("bad tree", err)
		}
	}
}
