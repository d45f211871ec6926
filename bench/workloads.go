package main

import (
	"crypto/sha256"
	_ "embed"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bmin"
	"repro/internal/chain"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/mcastsim"
	"repro/internal/mesh"
	"repro/internal/model"
	recov "repro/internal/recover"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/tuner"
	"repro/internal/wallclock"
	"repro/internal/wormhole"
)

// surfaceJSON is results/tuner_surface.json, copied verbatim so the
// faulted workload's selector does not move when that artifact is
// regenerated.
//
//go:embed testdata/tuner_surface.json
var surfaceJSON []byte

// A workload's set-up builds what a user builds once — fabrics, the
// calibrated t_end, the decoded tuner surface — and returns the op the
// harness repeats. An op draws its inputs from its seed outside the
// timed region, calls the program inside timed (exactly once), and
// verifies the outputs after it; an error means the op failed.
type (
	setupFunc func(p *probe) (opFunc, error)
	opFunc    func(seed uint64, timed func(func() error) error) (opResult, error)
)

type workload struct {
	name  string
	why   string
	setup setupFunc
}

// opResult is what one verified op reports.
type opResult struct {
	// digest is the SHA-256 of the op's canonical simulated outputs.
	digest string
	// requests is the simulated work the op completed: multicast
	// requests for traffic and mcast-1m, runner cells for figures.
	requests int
	// counts are exact simulated counters keyed by per-layer metric name;
	// they depend only on the op's seed.
	counts map[string]float64
	// warmMS is the median warm-cache replay time (figures only).
	warmMS float64
}

// Every op simulates on wormhole.DefaultConfig fabrics with the default
// software costs — the paper's Section 5 setting the figures use.
var (
	fabricCfg = wormhole.DefaultConfig()
	software  = model.DefaultSoftware()
)

var workloads = []workload{
	{
		name: "traffic-knee",
		why:  "F3 knee on the 16x16 mesh: delivered ~ offered and the wormhole kernel takes most self time, so kernel work shows and planner work should not",
		setup: trafficSpec{
			rate: 800, ks: []int{8, 16}, size: 1024, requests: 500, warmup: 50,
			admit: traffic.Admission{Policy: traffic.AdmissionFIFO, MaxInFlight: 4},
		}.setup,
	},
	{
		name: "traffic-fanout",
		why:  "wide groups of short messages: ~150 short worms per request load the event queue, delivery, chain sorting and repair-send planning instead of the kernel",
		setup: trafficSpec{
			rate: 100, ks: []int{64, 128, 256}, size: 64, requests: 200, warmup: 20,
			admit: traffic.Admission{Policy: traffic.AdmissionFIFO, MaxInFlight: 4},
		}.setup,
	},
	{
		name: "traffic-faulted",
		why:  "2% dead links with Reliable delivery and a live tuner: frozen-worm reclaim, the routability oracle, give-up re-plans and the fault model on the kernel path",
		setup: trafficSpec{
			rate: 600, ks: []int{8, 32}, size: 1024, requests: 500, warmup: 50,
			admit:   traffic.Admission{Policy: traffic.AdmissionBounded, MaxInFlight: 4, QueueCap: 16},
			faulted: true,
		}.setup,
	},
	{
		name:  "mcast-1m",
		why:   "one 64-member multicast on a reused 1024x1024 mesh: fabric-size costs (set-up, idle scans, memory) the 256-node workloads cannot show",
		setup: mcast1mSetup,
	},
	{
		name:  "figures",
		why:   "six paper figures at 2 trials through the runner on a fresh cache, then warm replays: the only BMIN, runner, cache and exp aggregation load",
		setup: figuresSetup,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digest hashes the printed form of vs: every field of the simulator's
// result types is an integer, bool, string or float printed in Go's
// shortest exact form, so equal outputs give equal digests.
func digest(vs ...any) string {
	h := sha256.New()
	fmt.Fprint(h, vs...)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// kernelCounts are the wormhole.Stats counters every op reports.
func kernelCounts(s wormhole.Stats) map[string]float64 {
	return map[string]float64{
		"wormhole.flit_hops_per_op":          float64(s.FlitHops),
		"wormhole.cycles_per_op":             float64(s.Cycles),
		"wormhole.worms_per_op":              float64(s.Worms),
		"wormhole.blocked_cycles_per_op":     float64(s.BlockedCycles),
		"wormhole.inject_wait_cycles_per_op": float64(s.InjectWaitCycles),
	}
}

// trafficSpec is one open-system workload on the 16x16 mesh with the
// OPT-mesh algorithm (or, faulted, the tuner's choice among the mesh
// algorithms) and Poisson arrivals.
type trafficSpec struct {
	rate             float64 // requests per Mcycle
	ks               []int
	size             int // message bytes
	requests, warmup int
	admit            traffic.Admission
	// faulted adds 2% dead links (a fresh plan per op, seeded by the op),
	// Reliable delivery and a tuner.Policy at the 2% fault coordinate.
	faulted bool
}

func (sp trafficSpec) setup(p *probe) (opFunc, error) {
	var plat exp.Platform
	_ = p.phase("fabric", func() error {
		plat = exp.MeshPlatform(16, 16, fabricCfg)
		return nil
	})
	var tend model.Time
	// Calibration uses the suite's fixed seed, not the run seed: t_end is
	// part of the machine, so an op's outputs depend on its own seed only.
	if err := p.phase("calib", func() (err error) {
		tend, err = exp.DefaultSuite(plat).MeasureTEnd(sp.size)
		return err
	}); err != nil {
		return nil, err
	}
	var (
		surf  *tuner.Surface
		algos []tuner.Algo
	)
	if sp.faulted {
		algos = exp.TunerAlgos(exp.MeshAlgorithms())
		for i := range algos {
			algos[i].Table = p.plan(algos[i].Table)
		}
		if err := p.phase("surface", func() error {
			set, err := tuner.DecodeSet(surfaceJSON)
			if err != nil {
				return err
			}
			for _, s := range set {
				if s.Platform == plat.Name {
					surf = s
					return nil
				}
			}
			return fmt.Errorf("tuner surface set has no %q surface", plat.Name)
		}); err != nil {
			return nil, err
		}
	}
	base := traffic.Config{
		Software: software,
		Arrival:  traffic.ArrivalSpec{Kind: traffic.ArrivalPoisson, RatePerMcycle: sp.rate},
		Load:     traffic.Workload{Ks: sp.ks, Sizes: []int{sp.size}},
		Admit:    sp.admit,
		Requests: sp.requests,
		Warmup:   sp.warmup,
		Less:     p.less(plat.Less),
		Plan:     p.plan(exp.Opt("OPT-mesh").Table),
		TEnd:     func(int) model.Time { return tend },
		Reliable: sp.faulted,
	}
	return func(seed uint64, timed func(func() error) error) (opResult, error) {
		cfg := base
		cfg.Seed = seed
		var (
			net *wormhole.Network
			pol *tuner.Policy
			res traffic.Result
		)
		err := timed(func() error {
			net = plat.NewNet()
			if sp.faulted {
				plan, err := fault.NewPlan(net.Topology(), fault.Spec{DeadFrac: 0.02, Seed: seed})
				if err != nil {
					return err
				}
				net.SetFaults(plan)
				if pol, err = tuner.NewPolicy(surf, algos, tuner.PolicyConfig{FaultPct: 2}); err != nil {
					return err
				}
				cfg.Tuner, cfg.Plan = p.selector(pol), nil
			}
			var err error
			res, err = traffic.Run(net, cfg)
			return err
		})
		if err != nil {
			return opResult{}, err
		}
		return sp.check(net, pol, res)
	}, nil
}

// check verifies one traffic run. Healthy: every request completes and
// every chain position is delivered. Faulted: every admitted request
// resolves each position, and delivered positions are a subset of the
// reachability oracle.
func (sp trafficSpec) check(net *wormhole.Network, pol *tuner.Policy, res traffic.Result) (opResult, error) {
	if len(res.Requests) != sp.requests {
		return opResult{}, fmt.Errorf("%d request records for %d requests", len(res.Requests), sp.requests)
	}
	var dests, delivered int64
	for i, rr := range res.Requests {
		if rr.Shed {
			if !sp.faulted {
				return opResult{}, fmt.Errorf("request %d shed under FIFO admission", i)
			}
			continue
		}
		if rr.Done < 0 {
			return opResult{}, fmt.Errorf("request %d admitted but not complete", i)
		}
		var reach []bool
		if sp.faulted {
			reach = recov.Reachable(net.Topology(), net.Faults(), chain.Chain(rr.Addrs), rr.Root)
		}
		got := 0
		for pos, d := range rr.Delivered {
			if !d {
				continue
			}
			got++
			if reach != nil && !reach[pos] {
				return opResult{}, fmt.Errorf("request %d delivered chain position %d, which the oracle says is unreachable", i, pos)
			}
		}
		if got+rr.Abandoned != len(rr.Addrs) {
			return opResult{}, fmt.Errorf("request %d resolved %d delivered + %d abandoned of %d positions", i, got, rr.Abandoned, len(rr.Addrs))
		}
		if !sp.faulted && rr.Abandoned > 0 {
			return opResult{}, fmt.Errorf("request %d abandoned %d positions on a healthy fabric", i, rr.Abandoned)
		}
		dests += int64(len(rr.Addrs) - 1)
		delivered += int64(got - 1)
	}

	m := res.Metrics
	counts := kernelCounts(net.Stats())
	counts["delivery.retransmits_per_op"] = float64(m.Retransmits)
	counts["delivery.repair_sends_per_op"] = float64(m.RepairSends)
	counts["delivery.cancelled_per_op"] = float64(m.Cancelled)
	counts["delivery.abandoned_per_op"] = float64(m.AbandonedDests)
	if dests > 0 {
		counts["delivery.delivered_frac"] = float64(delivered) / float64(dests)
	}
	counts["traffic.queue_delay_mean_cycles"] = m.MeanQueueDelay
	counts["traffic.occupancy_mean"] = m.MeanOccupancy
	counts["traffic.shed_frac"] = float64(m.ShedMeasured) / float64(m.Measured)
	counts["traffic.p99_cycles"] = m.P99
	var switches []tuner.Switch
	if pol != nil {
		var dropped int
		switches, dropped = pol.Switches()
		counts["tuner.switches_per_op"] = float64(len(switches) + dropped)
	}
	return opResult{
		digest:   digest(res.Requests, m, net.Stats(), switches),
		requests: len(res.Requests),
		counts:   counts,
	}, nil
}

// mcast1mSetup builds the 1024x1024 mesh once; each op multicasts 4 KB
// to a seeded 64-member group on it with the OPT-mesh tree.
func mcast1mSetup(p *probe) (opFunc, error) {
	const side, k, bytes = 1024, 64, 4096
	var (
		m   *mesh.Mesh
		net *wormhole.Network
	)
	if err := p.phase("fabric", func() (err error) {
		if m, err = mesh.TryNew(side, side); err != nil {
			return err
		}
		net = wormhole.New(m, fabricCfg)
		net.SetRecycling(true)
		return nil
	}); err != nil {
		return nil, err
	}
	var tend model.Time
	if err := p.phase("calib", func() (err error) {
		s := exp.DefaultSuite(exp.Platform{
			Name: "1024x1024 mesh", Nodes: m.NumNodes(),
			NewNet: func() *wormhole.Network { return net }, // idle between calibration unicasts
			Less:   m.DimOrderLess,
		})
		tend, err = s.MeasureTEnd(bytes)
		return err
	}); err != nil {
		return nil, err
	}
	thold := software.Hold.At(bytes)
	less := p.less(m.DimOrderLess)
	table := p.plan(exp.Opt("OPT-mesh").Table)
	return func(seed uint64, timed func(func() error) error) (opResult, error) {
		addrs := sim.NewRNG(seed).Sample(m.NumNodes(), k)
		before := net.Stats()
		var res mcastsim.Result
		err := timed(func() error {
			ch := chain.New(addrs, less)
			root, _ := ch.Index(addrs[0])
			var err error
			res, err = mcastsim.Run(net, table(k, thold, tend), ch, root, bytes, mcastsim.Config{Software: software})
			return err
		})
		if err != nil {
			return opResult{}, err
		}
		// mcastsim.Run fails unless every position is delivered; OPT-mesh
		// over the dimension-order chain is contention-free on a mesh.
		if len(res.Deliveries) != k || res.BlockedCycles != 0 {
			return opResult{}, fmt.Errorf("multicast reached %d of %d positions with %d blocked cycles, want all and 0", len(res.Deliveries), k, res.BlockedCycles)
		}
		after := net.Stats()
		delta := wormhole.Stats{
			Cycles:           after.Cycles - before.Cycles,
			Worms:            after.Worms - before.Worms,
			FlitHops:         after.FlitHops - before.FlitHops,
			BlockedCycles:    after.BlockedCycles - before.BlockedCycles,
			InjectWaitCycles: after.InjectWaitCycles - before.InjectWaitCycles,
			Cancelled:        after.Cancelled - before.Cancelled,
		}
		counts := kernelCounts(delta)
		counts["delivery.delivered_frac"] = 1
		return opResult{digest: digest(res, delta), requests: 1, counts: counts}, nil
	}, nil
}

// netTally sums the kernel counters of every fabric a figure pass
// builds. A pass runs its cells on one worker, so each fabric is done
// before the next is built and only the newest needs keeping.
type netTally struct {
	last *wormhole.Network
	sum  wormhole.Stats
}

func (t *netTally) wrap(pl exp.Platform) exp.Platform {
	newNet := pl.NewNet
	pl.NewNet = func() *wormhole.Network {
		t.flush()
		t.last = newNet()
		return t.last
	}
	return pl
}

func (t *netTally) flush() {
	if t.last == nil {
		return
	}
	s := t.last.Stats()
	t.sum.Cycles += s.Cycles
	t.sum.Worms += s.Worms
	t.sum.FlitHops += s.FlitHops
	t.sum.BlockedCycles += s.BlockedCycles
	t.sum.InjectWaitCycles += s.InjectWaitCycles
	t.last = nil
}

// take returns the counters since the last take.
func (t *netTally) take() wormhole.Stats {
	t.flush()
	s := t.sum
	t.sum = wormhole.Stats{}
	return s
}

// warmReplays is how many warm-cache passes follow each cold pass.
const warmReplays = 4

// figuresSetup builds the two paper platforms. Each op runs one cold
// figure pass (the timed part) on a fresh cache and then replays it warm.
func figuresSetup(p *probe) (opFunc, error) {
	var (
		tally       netTally
		meshP, bmnP exp.Platform
	)
	_ = p.phase("fabric", func() error {
		meshP = tally.wrap(exp.MeshPlatform(16, 16, fabricCfg))
		bmnP = tally.wrap(exp.BMINPlatform(128, bmin.AscentStraight, fabricCfg))
		return nil
	})
	return func(seed uint64, timed func(func() error) error) (opResult, error) {
		dir, err := os.MkdirTemp("", "bench-figures-")
		if err != nil {
			return opResult{}, err
		}
		defer os.RemoveAll(dir)
		cache, err := runner.OpenCache(dir)
		if err != nil {
			return opResult{}, err
		}
		pass := func() (string, *runner.Summary, error) {
			sum := &runner.Summary{}
			ex := &runner.Exec{Workers: 1, Cache: cache, Resume: true, Summary: sum}
			suite := func(pl exp.Platform) *exp.Suite {
				s := exp.DefaultSuite(pl)
				s.Trials, s.Seed, s.Exec = 2, seed, ex
				return s
			}
			text, err := figureTables(suite(meshP), suite(bmnP), seed)
			return text, sum, err
		}

		tally.take()
		var (
			cold    string
			coldSum *runner.Summary
		)
		if err := timed(func() (err error) {
			cold, coldSum, err = pass()
			return err
		}); err != nil {
			return opResult{}, err
		}
		kernel := tally.take()
		// Figures share some cells (F1's healthy row is Figure 2's), so a
		// cold pass loads those it computed earlier in the same pass.
		if coldSum.Computed == 0 || coldSum.Computed+coldSum.Cached != coldSum.Cells {
			return opResult{}, fmt.Errorf("cold pass computed %d and loaded %d of %d cells", coldSum.Computed, coldSum.Cached, coldSum.Cells)
		}

		warm := make([]float64, warmReplays)
		var warmSum *runner.Summary
		for i := range warm {
			t0 := wallclock.Now()
			text, sum, err := pass()
			warm[i] = float64(wallclock.Since(t0)) / float64(time.Millisecond)
			if err != nil {
				return opResult{}, err
			}
			if text != cold || sum.Computed != 0 {
				return opResult{}, fmt.Errorf("warm replay %d recomputed %d cells or changed a table", i, sum.Computed)
			}
			warmSum = sum
		}
		tally.take()

		counts := kernelCounts(kernel)
		counts["runner.cells_computed"] = float64(coldSum.Computed)
		counts["runner.cells_cached"] = float64(warmSum.Cached)
		return opResult{
			digest:   digest(cold),
			requests: coldSum.Computed,
			counts:   counts,
			warmMS:   sim.Median(warm),
		}, nil
	}, nil
}

// figureTables runs Figure 2, Figure 3, the two BMIN sweeps, F1 and F3
// and returns their rendered tables.
func figureTables(ms, bs *exp.Suite, seed uint64) (string, error) {
	var tables []*exp.Table
	for _, fig := range []func() (*exp.Table, error){
		func() (*exp.Table, error) { return exp.Figure2(ms) },
		func() (*exp.Table, error) { return exp.Figure3(ms) },
		func() (*exp.Table, error) { return exp.BMINSizes(bs) },
		func() (*exp.Table, error) { return exp.BMINNodes(bs) },
		func() (*exp.Table, error) {
			return exp.FaultSweep(ms, bs, 32, 4096, []int{0, 1, 2, 3, 4, 5}, seed)
		},
	} {
		t, err := fig()
		if err != nil {
			return "", err
		}
		tables = append(tables, t)
	}
	sc := exp.DefaultTrafficScenario()
	sc.Trials = 2
	f3, err := exp.TrafficSweep(ms, bs, exp.DefaultTrafficRates(), sc)
	if err != nil {
		return "", err
	}
	tables = append(tables, f3.Latency, f3.Throughput, f3.Queue)

	var b strings.Builder
	for _, t := range tables {
		if t.Incomplete {
			return "", fmt.Errorf("table %q incomplete on an unsharded run", t.Title)
		}
		b.WriteString(t.Format())
	}
	return b.String(), nil
}
