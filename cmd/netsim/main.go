// Command netsim runs a single multicast on the flit-level simulator and
// reports latency, contention and per-node delivery times.
//
// Usage:
//
//	netsim -topo mesh -w 16 -h 16 -algo opt-mesh -k 32 -bytes 4096
//	netsim -topo bmin -nodes 128 -algo u-min -k 16 -bytes 65536 -seed 7
//	netsim -topo bfly -nodes 64 -algo opt-tree -k 24 -bytes 8192 -v
//	netsim -topo mesh -algo opt -faults 5 -fault-seed 3 -deadline 200000
//	netsim -topo mesh -algo opt -faults 5 -recover -v
//	netsim -topo mesh -traffic -rate 400 -arrival bursty -admission bounded
//	netsim -topo bmin -traffic -rate 800 -skew 0.5 -v
//	netsim -topo mesh -churn -churn-rate 800 -rejoin 0.5 -repair incr
//	netsim -topo bmin -churn -churn-rate 1600 -degree-cap 3 -v
//	netsim -topo mesh -autotune -k 32 -bytes 4096
//	netsim -topo mesh -traffic -autotune -faults 3 -rate 200 -v
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/bfly"
	"repro/internal/bmin"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mcastsim"
	"repro/internal/member"
	"repro/internal/mesh"
	"repro/internal/model"
	recov "repro/internal/recover"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/torus"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/tuner"
	"repro/internal/wormhole"
)

func main() {
	var (
		topo     = flag.String("topo", "mesh", "fabric: mesh, torus, bmin, bfly")
		w        = flag.Int("w", 16, "mesh width")
		h        = flag.Int("h", 16, "mesh height")
		nodes    = flag.Int("nodes", 128, "bmin/bfly node count (power of two)")
		policy   = flag.String("policy", "straight", "bmin ascent policy: straight, dest, adaptive, adaptive-dest")
		algo     = flag.String("algo", "opt", "algorithm: opt (architecture chain), opt-tree (unordered), binomial, sequential")
		k        = flag.Int("k", 32, "multicast size (source + k-1 destinations)")
		bytes    = flag.Int("bytes", 4096, "message size in bytes")
		seed     = flag.Uint64("seed", 1, "placement seed")
		addrB    = flag.Int("addrbytes", 0, "payload bytes charged per carried destination address")
		verbose  = flag.Bool("v", false, "print per-node delivery times")
		gantt    = flag.Bool("trace", false, "print a message-timeline Gantt chart and the hottest channels")
		heatmap  = flag.Bool("heatmap", false, "print a mesh link-utilization heatmap (mesh only)")
		faults   = flag.Float64("faults", 0, "percent of fabric links to kill (dead links, routed around or unreachable)")
		degraded = flag.Float64("degraded", 0, "percent of fabric links at 1/4 bandwidth")
		flaky    = flag.Float64("flaky", 0, "percent of fabric links with periodic transient outages")
		fseed    = flag.Uint64("fault-seed", 1, "fault plan seed (same seed = same failed links)")
		deadline = flag.Int64("deadline", 0, "abort the multicast after this many cycles (0 = generous default)")
		rec      = flag.Bool("recover", false, "run the reliable-delivery layer (timeout/retransmit, tree repair, binomial fallback); requires a fault flag")
		cacheDir = flag.String("cache", "", "content-addressed result cache directory (reuse an identical prior run; ignored with -trace/-heatmap)")
		tra      = flag.Bool("traffic", false, "run sustained open-system traffic (seeded arrivals at -rate) instead of a single multicast")
		rate     = flag.Float64("rate", 200, "traffic: offered load in requests per million cycles")
		arr      = flag.String("arrival", "poisson", "traffic: arrival process, poisson or bursty")
		adm      = flag.String("admission", "fifo", "traffic: admission policy, fifo (unbounded queue) or bounded (overflow is shed)")
		skew     = flag.Float64("skew", 0, "traffic: fraction of destination draws aimed at a seeded hot set (0 = uniform)")
		churn    = flag.Bool("churn", false, "run the multicast under a seeded membership churn schedule (joins, leaves, crashes, rejoins)")
		churnR   = flag.Float64("churn-rate", 400, "churn: membership events per million cycles")
		rejoin   = flag.Float64("rejoin", 0.5, "churn: fraction of crashed members that rejoin after the outage window")
		repair   = flag.String("repair", "incr", "churn: repair policy, full (re-plan), incr (graft/excise), binom (binomial over survivors)")
		degCap   = flag.Int("degree-cap", 0, "churn: per-node fan-out cap for degree-bounded trees (0 = one-port split table)")
		autotune = flag.Bool("autotune", false, "train a crossover surface on the healthy fabric and let the tuner pick the algorithm (overrides -algo); with -traffic the policy re-picks per request and switches live on observed drift")
	)
	flag.Parse()

	if err := run(options{
		topo: *topo, w: *w, h: *h, nodes: *nodes, policy: *policy, algo: *algo,
		k: *k, bytes: *bytes, seed: *seed, addrB: *addrB,
		verbose: *verbose, gantt: *gantt, heatmap: *heatmap,
		faults: *faults, degraded: *degraded, flaky: *flaky,
		faultSeed: *fseed, deadline: *deadline, recover: *rec,
		cacheDir: *cacheDir,
		traffic:  *tra, rate: *rate, arrival: *arr, admission: *adm, skew: *skew,
		churn: *churn, churnRate: *churnR, rejoinFrac: *rejoin,
		repairPolicy: *repair, degreeCap: *degCap,
		autotune: *autotune,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
}

type options struct {
	topo         string
	w, h, nodes  int
	policy, algo string
	k, bytes     int
	seed         uint64
	addrB        int
	verbose      bool
	gantt        bool
	heatmap      bool

	faults, degraded, flaky float64 // percentages of fabric links
	faultSeed               uint64
	deadline                int64
	recover                 bool   // reliable delivery instead of plain mcastsim
	cacheDir                string // content-addressed result cache, "" = off

	traffic            bool    // open-system traffic instead of a single multicast
	rate               float64 // offered requests per Mcycle
	arrival, admission string  // traffic process and queueing policy
	skew               float64 // hot-spot fraction of destination draws

	churn        bool    // multicast under a membership churn schedule
	churnRate    float64 // membership events per Mcycle
	rejoinFrac   float64 // fraction of crashes that rejoin
	repairPolicy string  // full, incr, binom
	degreeCap    int     // per-node fan-out cap (0 = split table)

	autotune bool // crossover-surface algorithm selection instead of -algo
}

func run(o options) error {
	topoName, w, h, nodes := o.topo, o.w, o.h, o.nodes
	policyName, algoName := o.policy, o.algo
	k, bytes, seed, addrB, verbose := o.k, o.bytes, o.seed, o.addrB, o.verbose
	cfg := wormhole.DefaultConfig()
	var (
		topo     wormhole.Topology
		less     func(a, b int) bool
		n        int
		theMesh  *mesh.Mesh
		platform string // cache-key fabric description
	)
	switch topoName {
	case "mesh":
		m := mesh.New2D(w, h)
		theMesh = m
		topo, less, n = m, m.DimOrderLess, m.NumNodes()
		platform = fmt.Sprintf("mesh%dx%d", w, h)
	case "torus":
		tr := torus.New2D(w, h)
		topo, less, n = tr, tr.DimOrderLess, tr.NumNodes()
		platform = fmt.Sprintf("torus%dx%d", w, h)
	case "bmin":
		var pol bmin.AscentPolicy
		switch policyName {
		case "straight":
			pol = bmin.AscentStraight
		case "dest":
			pol = bmin.AscentDest
		case "adaptive":
			pol = bmin.AscentAdaptive
		case "adaptive-dest":
			pol = bmin.AscentAdaptiveDest
		default:
			return fmt.Errorf("unknown policy %q", policyName)
		}
		b := bmin.New(nodes, pol)
		topo, less, n = b, b.LexLess, nodes
		platform = fmt.Sprintf("bmin%d/%s", nodes, policyName)
	case "bfly":
		b := bfly.New(nodes)
		topo, less, n = b, b.LexLess, nodes
		platform = fmt.Sprintf("bfly%d", nodes)
	default:
		return fmt.Errorf("unknown topology %q", topoName)
	}
	if k > n {
		return fmt.Errorf("k=%d exceeds fabric size %d", k, n)
	}
	if o.heatmap && theMesh == nil {
		return fmt.Errorf("-heatmap requires a 2-D mesh fabric, not %q (use -trace for per-channel reports on other topologies)", topoName)
	}
	if o.heatmap && o.traffic {
		return fmt.Errorf("-heatmap visualizes a single multicast; it cannot overlay -traffic's open-system run (use -trace for the aggregate timeline)")
	}
	if o.autotune && o.heatmap {
		return fmt.Errorf("-heatmap visualizes one fixed algorithm's link usage; it cannot follow -autotune's per-request selection (pick an -algo explicitly)")
	}
	if o.autotune && o.churn {
		return fmt.Errorf("-autotune and -churn compose their own policies (the churn repair ladder already re-plans trees); pick one")
	}

	for _, p := range []struct {
		name string
		pct  float64
	}{{"-faults", o.faults}, {"-degraded", o.degraded}, {"-flaky", o.flaky}} {
		if p.pct < 0 || p.pct > 100 {
			return fmt.Errorf("%s=%g outside [0,100] (a percentage of fabric links)", p.name, p.pct)
		}
	}
	var plan *fault.Plan
	if o.faults > 0 || o.degraded > 0 || o.flaky > 0 {
		var err error
		plan, err = fault.NewPlan(topo, fault.Spec{
			DeadFrac:     o.faults / 100,
			DegradedFrac: o.degraded / 100,
			FlakyFrac:    o.flaky / 100,
			Seed:         o.faultSeed,
		})
		if err != nil {
			return err
		}
	}
	if o.recover && plan == nil {
		return fmt.Errorf("-recover needs something to recover from: set -faults, -degraded or -flaky")
	}

	soft := model.DefaultSoftware()
	runCfg := mcastsim.Config{Software: soft, AddrBytes: addrB}

	// Measure t_end on this fabric for the OPT shapes.
	r := sim.NewRNG(seed)
	addrs := r.Sample(n, k)
	a, b := addrs[0], addrs[len(addrs)-1]
	tend, err := mcastsim.Unicast(wormhole.New(topo, cfg), a, b, bytes, runCfg)
	if err != nil {
		return err
	}
	thold := soft.Hold.At(bytes)

	if o.traffic && o.churn {
		return fmt.Errorf("-traffic and -churn are different drive loops; pick one")
	}
	var pol *tuner.Policy
	if o.autotune {
		var tcache *runner.Cache
		if o.cacheDir != "" && !o.gantt {
			tcache, err = runner.OpenCache(o.cacheDir)
			if err != nil {
				return err
			}
		}
		pol, err = buildAutotunePolicy(o, platform, topo, less, n, soft, thold, tend, cfg, tcache)
		if err != nil {
			return err
		}
		// Single-shot modes run the surface's static pick; -traffic hands
		// the whole policy to the engine for per-request selection.
		o.algo = pol.Name(pol.PickFor(o.k, o.bytes))
		algoName = o.algo
	}
	if o.traffic {
		return runTraffic(o, topoName, platform, topo, less, n, plan, soft, thold, tend, cfg, pol)
	}
	if o.churn {
		return runChurn(o, topoName, platform, topo, less, n, soft, thold, tend, cfg)
	}

	var ch chain.Chain
	var tab core.SplitTable
	switch algoName {
	case "opt":
		ch = chain.New(addrs, less)
		tab = core.NewOptTable(k, thold, tend)
	case "opt-tree":
		ch = chain.Unordered(addrs)
		tab = core.NewOptTable(k, thold, tend)
	case "binomial":
		ch = chain.New(addrs, less)
		tab = core.BinomialTable{Max: k}
	case "sequential":
		ch = chain.New(addrs, less)
		tab = core.SequentialTable{Max: k}
	default:
		return fmt.Errorf("unknown algorithm %q", algoName)
	}
	root, _ := ch.Index(addrs[0])

	net := wormhole.New(topo, cfg)
	if plan != nil {
		// Calibration above ran on a healthy fabric (the tree is tuned for
		// the machine as specified); only the measured run is degraded.
		net.SetFaults(plan)
	}
	usage := trace.NewChannelUsage(topo)
	timeline := trace.NewTimeline()
	if o.gantt || o.heatmap {
		net.SetObserver(trace.Multi{usage, timeline})
	}
	mainCfg := runCfg
	mainCfg.MaxCycles = o.deadline
	printTraces := func() {
		if o.gantt {
			fmt.Println("\nmessage timeline ('!' marks blocked messages):")
			fmt.Print(timeline.Gantt(64))
			fmt.Println("\nhottest channels:")
			fmt.Print(usage.Report(10))
		}
		if o.heatmap && theMesh != nil {
			fmt.Println()
			fmt.Print(trace.MeshHeatmap(theMesh, usage))
		}
	}

	// The cache keys the measured run on every input that shapes it. A
	// -trace/-heatmap run must execute for real (the observers are the
	// output), so the cache is bypassed there.
	var cache *runner.Cache
	if o.cacheDir != "" {
		if o.gantt || o.heatmap {
			fmt.Fprintln(os.Stderr, "netsim: -trace/-heatmap need a live run; ignoring -cache")
		} else {
			cache, err = runner.OpenCache(o.cacheDir)
			if err != nil {
				return err
			}
		}
	}
	key := runner.Key{
		Mode: "netsim", Platform: platform, Algo: algoName, Soft: softwareKey(soft),
		K: k, Bytes: bytes, Seed: seed, AddrBytes: addrB, THold: thold, TEnd: tend,
		Extra: fmt.Sprintf("deadline=%d", o.deadline),
	}
	if o.recover {
		key.Mode = "netsim-recover"
	}
	if plan != nil {
		key.FaultSeed = o.faultSeed
		key.Extra = fmt.Sprintf("dead=%g,degraded=%g,flaky=%g,deadline=%d",
			o.faults, o.degraded, o.flaky, o.deadline)
	}

	fmt.Printf("fabric: %s (%d nodes)   algorithm: %s   k=%d   message=%d bytes\n",
		topoName, n, algoName, k, bytes)
	if plan != nil {
		fmt.Printf("faults: %s\n", plan)
	}
	fmt.Printf("measured parameters: t_hold=%d  t_end=%d  (ratio %.3f)\n",
		thold, tend, float64(thold)/float64(tend))

	if o.recover {
		var res recov.Result
		hit := false
		if cache != nil {
			cr, ok, cerr := cache.Load(key)
			if cerr != nil {
				return cerr
			}
			if ok {
				res, hit = recoverFromCache(cr), true
				fmt.Fprintln(os.Stderr, "netsim: result from cache", o.cacheDir)
			}
		}
		if !hit {
			rcfg := recov.Config{
				Sim:  mainCfg,
				TEnd: tend,
				Seed: seed,
			}
			if pol != nil {
				// Admission-time selection below the recovery ladder: the
				// policy's pick replaces the caller's table at Run start.
				rcfg.Select = func(kk int) core.SplitTable {
					return pol.TableFor(kk, bytes, thold, tend)
				}
			}
			res, err = recov.Run(net, tab, ch, root, bytes, rcfg)
			if err != nil {
				return err
			}
			if cache != nil {
				if err := cache.Store(key, recoverToCache(res)); err != nil {
					return err
				}
			}
		}
		var counts [4]int
		for i, s := range res.Status {
			if i != root {
				counts[s]++
			}
		}
		oh := res.Overhead
		fmt.Printf("completion latency:  %d cycles\n", res.Latency)
		fmt.Printf("delivered:           %d/%d destinations (%d first-try, %d retried, %d adopted, %d abandoned)\n",
			res.Delivered, k-1, counts[mcastsim.StatusDelivered], counts[mcastsim.StatusRetried],
			counts[mcastsim.StatusAdopted], counts[mcastsim.StatusAbandoned])
		fmt.Printf("messages sent:       %d (retransmits %d, repair sends %d, orphan sends %d, cancelled %d)\n",
			oh.Sends, oh.Retransmits, oh.RepairSends, oh.OrphanSends, oh.Cancelled)
		fmt.Printf("give-ups (repairs):  %d\n", oh.Repairs)
		if res.FallbackAt >= 0 {
			fmt.Printf("policy:              fell back to binomial over survivors at cycle %d\n", res.FallbackAt)
		} else {
			fmt.Printf("policy:              %s tree throughout (no binomial fallback)\n", algoName)
		}
		fmt.Printf("contention:          %d blocked header cycles\n", res.BlockedCycles)
		fmt.Printf("one-port wait:       %d cycles\n", res.InjectWaitCycles)
		fmt.Printf("fabric cycles:       %d\n", res.Cycles)
		if verbose {
			printRecoveredDeliveries(ch, res)
		}
		printTraces()
		return nil
	}

	var res mcastsim.Result
	hit := false
	if cache != nil {
		cr, ok, cerr := cache.Load(key)
		if cerr != nil {
			return cerr
		}
		if ok {
			res, hit = mcastFromCache(cr), true
			fmt.Fprintln(os.Stderr, "netsim: result from cache", o.cacheDir)
		}
	}
	if !hit {
		res, err = mcastsim.Run(net, tab, ch, root, bytes, mainCfg)
		if err != nil {
			return err
		}
		if cache != nil {
			if err := cache.Store(key, mcastToCache(res)); err != nil {
				return err
			}
		}
	}
	fmt.Printf("multicast latency:   %d cycles\n", res.Latency)
	fmt.Printf("messages sent:       %d\n", res.Worms)
	fmt.Printf("contention:          %d blocked header cycles\n", res.BlockedCycles)
	fmt.Printf("one-port wait:       %d cycles\n", res.InjectWaitCycles)
	fmt.Printf("fabric cycles:       %d\n", res.Cycles)

	if verbose {
		type del struct {
			node int
			at   int64
		}
		var ds []del
		for i, d := range res.Deliveries {
			ds = append(ds, del{node: ch[i], at: d})
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i].at < ds[j].at })
		fmt.Println("\ndeliveries (node: cycle):")
		for _, d := range ds {
			fmt.Printf("  %4d: %d\n", d.node, d.at)
		}
	}
	printTraces()
	return nil
}

// Fixed shape of a CLI traffic run: enough arrivals for stable
// steady-state quantiles at interactive speed.
const (
	trafficRequests = 64
	trafficWarmup   = 8
)

// runTraffic drives the open-system engine: seeded arrivals at the
// configured rate, every request a k-node multicast of the configured
// size, planned by the chosen algorithm under the measured parameters.
func runTraffic(o options, topoName, platform string, topo wormhole.Topology,
	less func(a, b int) bool, n int, plan *fault.Plan,
	soft model.Software, thold, tend model.Time, cfg wormhole.Config,
	pol *tuner.Policy) error {
	var planFn func(kk int, th, te model.Time) core.SplitTable
	ordered := true
	switch o.algo {
	case "opt":
		planFn = func(kk int, th, te model.Time) core.SplitTable { return core.NewOptTable(kk, th, te) }
	case "opt-tree":
		ordered = false
		planFn = func(kk int, th, te model.Time) core.SplitTable { return core.NewOptTable(kk, th, te) }
	case "binomial":
		planFn = func(kk int, _, _ model.Time) core.SplitTable { return core.BinomialTable{Max: kk} }
	case "sequential":
		planFn = func(kk int, _, _ model.Time) core.SplitTable { return core.SequentialTable{Max: kk} }
	default:
		return fmt.Errorf("unknown algorithm %q", o.algo)
	}
	var lessFn func(a, b int) bool
	if ordered || pol != nil {
		// The tuner mixes ordered and unordered candidates per request,
		// so the chain order must always be available.
		lessFn = less
	}
	hotNodes := n / 8
	if hotNodes < 2 {
		hotNodes = 2
	}
	tcfg := traffic.Config{
		Software:  soft,
		AddrBytes: o.addrB,
		Arrival:   traffic.ArrivalSpec{Kind: o.arrival, RatePerMcycle: o.rate},
		Load:      traffic.Workload{Ks: []int{o.k}, Sizes: []int{o.bytes}, HotFrac: o.skew, HotNodes: hotNodes},
		Admit:     traffic.Admission{Policy: o.admission},
		Requests:  trafficRequests,
		Warmup:    trafficWarmup,
		Less:      lessFn,
		Plan:      planFn,
		TEnd:      func(int) model.Time { return tend },
		Reliable:  plan != nil,
		Seed:      o.seed,
		MaxCycles: o.deadline,
	}
	algoLabel := o.algo
	if pol != nil {
		tcfg.Tuner = pol
		algoLabel = "auto"
	}

	var cache *runner.Cache
	if o.cacheDir != "" {
		if o.gantt {
			fmt.Fprintln(os.Stderr, "netsim: -trace needs a live run; ignoring -cache")
		} else {
			var err error
			cache, err = runner.OpenCache(o.cacheDir)
			if err != nil {
				return err
			}
		}
	}
	key := runner.Key{
		Mode: "netsim-traffic", Platform: platform, Algo: algoLabel, Soft: softwareKey(soft),
		K: o.k, Bytes: o.bytes, Seed: o.seed, AddrBytes: o.addrB, THold: thold, TEnd: tend,
		Extra: fmt.Sprintf("rate=%g,arr=%s,adm=%s,skew=%g,req=%d,warm=%d,deadline=%d",
			o.rate, o.arrival, o.admission, o.skew, trafficRequests, trafficWarmup, o.deadline),
	}
	if plan != nil {
		key.FaultSeed = o.faultSeed
		key.Extra += fmt.Sprintf(",dead=%g,degraded=%g,flaky=%g", o.faults, o.degraded, o.flaky)
	}
	if pol != nil {
		// The tuned run is a pure function of flags plus the trained
		// surface, so the surface's content hash joins the key.
		key.Extra += fmt.Sprintf(",autotune=1,win=%d,train=%d,surface=%.16s",
			autotuneWindow, autotuneTrials, pol.SurfaceHash())
	}

	fmt.Printf("fabric: %s (%d nodes)   algorithm: %s   k=%d   message=%d bytes\n",
		topoName, n, algoLabel, o.k, o.bytes)
	if plan != nil {
		fmt.Printf("faults: %s   (reliable delivery on)\n", plan)
	}
	fmt.Printf("measured parameters: t_hold=%d  t_end=%d  (ratio %.3f)\n",
		thold, tend, float64(thold)/float64(tend))
	fmt.Printf("traffic:             %s arrivals at %g req/Mcycle, %s admission\n",
		o.arrival, o.rate, o.admission)
	if o.skew > 0 {
		fmt.Printf("hot spot:            %.0f%% of destination draws -> %d-node hot set\n", o.skew*100, hotNodes)
	}

	var res traffic.Result
	hit := false
	if cache != nil {
		cr, ok, cerr := cache.Load(key)
		if cerr != nil {
			return cerr
		}
		if ok {
			res, hit = trafficFromCache(cr), true
			fmt.Fprintln(os.Stderr, "netsim: result from cache", o.cacheDir)
		}
	}
	if !hit {
		net := wormhole.New(topo, cfg)
		if plan != nil {
			net.SetFaults(plan)
		}
		usage := trace.NewChannelUsage(topo)
		timeline := trace.NewTimeline()
		if o.gantt {
			net.SetObserver(trace.Multi{usage, timeline})
		}
		var err error
		res, err = traffic.Run(net, tcfg)
		if err != nil {
			return err
		}
		if cache != nil {
			if err := cache.Store(key, trafficToCache(res)); err != nil {
				return err
			}
		}
		if o.gantt {
			defer func() {
				fmt.Println("\nmessage timeline ('!' marks blocked messages):")
				fmt.Print(timeline.Gantt(64))
				fmt.Println("\nhottest channels:")
				fmt.Print(usage.Report(10))
			}()
		}
	}

	m := res.Metrics
	fmt.Printf("requests:            %d arrivals (%d warm-up), %d completed, %d shed\n",
		m.Requests, trafficWarmup, m.Completed, m.Shed)
	fmt.Printf("offered (measured):  %.1f req/Mcycle\n", m.OfferedPerMcycle)
	fmt.Printf("delivered:           %.1f req/Mcycle\n", m.DeliveredPerMcycle)
	fmt.Printf("completion latency:  p50=%.0f  p99=%.0f  p999=%.0f  mean=%.1f cycles\n",
		m.P50, m.P99, m.P999, m.MeanLatency)
	fmt.Printf("queueing delay:      mean %.1f cycles, max %d\n", m.MeanQueueDelay, m.MaxQueueDelay)
	fmt.Printf("occupancy:           %.2f requests in service (mean)\n", m.MeanOccupancy)
	if tcfg.Reliable {
		fmt.Printf("recovery:            %d retransmits, %d repair sends, %d cancelled, %d abandoned destinations\n",
			m.Retransmits, m.RepairSends, m.Cancelled, m.AbandonedDests)
	}
	fmt.Printf("contention:          %d blocked header cycles\n", m.BlockedCycles)
	fmt.Printf("one-port wait:       %d cycles\n", m.InjectWaitCycles)
	fmt.Printf("fabric cycles:       %d\n", m.Cycles)
	if pol != nil {
		printAutotuneTraffic(o, pol, res.Requests, hit, tend)
	}

	if o.verbose {
		fmt.Println("\nrequests (arrive -> start -> done):")
		for i, rr := range res.Requests {
			if rr.Shed {
				fmt.Printf("  %4d: %8d  shed\n", i, rr.Arrive)
				continue
			}
			fmt.Printf("  %4d: %8d -> %8d -> %8d  (%d cycles, k=%d, %dB)\n",
				i, rr.Arrive, rr.Start, rr.Done, rr.Done-rr.Arrive, rr.K, rr.Bytes)
		}
	}
	return nil
}

// Fixed shape of a CLI churn run, matching the F5 figure's scenario:
// the schedule horizon, the crash outage window, and the joiner-pool
// divisor (pool = max(2, k/churnPoolDiv) extra addresses that may join).
const (
	churnHorizon    = 65536
	churnDownCycles = 4096
	churnPoolDiv    = 4
)

// runChurn drives the membership engine: a reliable multicast of the
// k-member group while a seeded churn schedule fires joins, leaves,
// crashes and rejoins, with crash windows compiled into the fault plan
// next to any requested channel faults.
func runChurn(o options, topoName, platform string, topo wormhole.Topology,
	less func(a, b int) bool, n int,
	soft model.Software, thold, tend model.Time, cfg wormhole.Config) error {
	var pol recov.RepairPolicy
	switch o.repairPolicy {
	case "full":
		pol = recov.RepairFull
	case "incr":
		pol = recov.RepairIncremental
	case "binom":
		pol = recov.RepairBinomial
	default:
		return fmt.Errorf("unknown repair policy %q (want full, incr or binom)", o.repairPolicy)
	}
	if o.churnRate < 0 {
		return fmt.Errorf("-churn-rate=%g must be >= 0 events/Mcycle", o.churnRate)
	}
	if o.rejoinFrac < 0 || o.rejoinFrac > 1 {
		return fmt.Errorf("-rejoin=%g outside [0,1]", o.rejoinFrac)
	}
	if o.degreeCap < 0 {
		return fmt.Errorf("-degree-cap=%d must be >= 0", o.degreeCap)
	}
	pool := o.k / churnPoolDiv
	if pool < 2 {
		pool = 2
	}
	if o.k+pool > n {
		return fmt.Errorf("k=%d plus a %d-node joiner pool exceeds fabric size %d", o.k, pool, n)
	}
	addrs := sim.NewRNG(o.seed).Sample(n, o.k+pool)
	members, joiners := addrs[:o.k], addrs[o.k:]
	sched, err := member.GenSchedule(member.ChurnSpec{
		RatePerMcycle: o.churnRate,
		Horizon:       churnHorizon,
		RejoinFrac:    o.rejoinFrac,
		DownCycles:    churnDownCycles,
		Seed:          o.faultSeed,
	}, members, joiners)
	if err != nil {
		return err
	}
	plan, err := fault.NewPlan(topo, fault.Spec{
		DeadFrac:     o.faults / 100,
		DegradedFrac: o.degraded / 100,
		FlakyFrac:    o.flaky / 100,
		NodeOutages:  sched.Outages,
		Seed:         o.faultSeed,
	})
	if err != nil {
		return err
	}

	var ch chain.Chain
	switch o.algo {
	case "opt", "binomial", "sequential":
		ch = chain.New(addrs, less)
	case "opt-tree":
		ch = chain.Unordered(addrs)
	default:
		return fmt.Errorf("unknown algorithm %q", o.algo)
	}
	var tab core.SplitTable
	switch o.algo {
	case "opt", "opt-tree":
		tab = core.NewOptTable(len(ch), thold, tend)
	case "binomial":
		tab = core.BinomialTable{Max: len(ch)}
	case "sequential":
		tab = core.SequentialTable{Max: len(ch)}
	}

	var cache *runner.Cache
	if o.cacheDir != "" {
		if o.gantt || o.heatmap {
			fmt.Fprintln(os.Stderr, "netsim: -trace/-heatmap need a live run; ignoring -cache")
		} else {
			cache, err = runner.OpenCache(o.cacheDir)
			if err != nil {
				return err
			}
		}
	}
	key := runner.Key{
		Mode: "netsim-churn", Platform: platform, Algo: o.algo, Soft: softwareKey(soft),
		K: o.k, Bytes: o.bytes, Seed: o.seed, AddrBytes: o.addrB, THold: thold, TEnd: tend,
		FaultSeed: o.faultSeed,
		Extra: fmt.Sprintf("rate=%g,rejoin=%g,repair=%s,cap=%d,pool=%d,horizon=%d,down=%d,dead=%g,degraded=%g,flaky=%g,deadline=%d",
			o.churnRate, o.rejoinFrac, o.repairPolicy, o.degreeCap, pool,
			churnHorizon, churnDownCycles, o.faults, o.degraded, o.flaky, o.deadline),
	}

	crashes := len(sched.Outages)
	fmt.Printf("fabric: %s (%d nodes)   algorithm: %s   k=%d (+%d joiner pool)   message=%d bytes\n",
		topoName, n, o.algo, o.k, pool, o.bytes)
	fmt.Printf("faults: %s\n", plan)
	fmt.Printf("measured parameters: t_hold=%d  t_end=%d  (ratio %.3f)\n",
		thold, tend, float64(thold)/float64(tend))
	fmt.Printf("churn:               %g events/Mcycle over %d cycles: %d events (%d crashes), rejoin %.0f%%\n",
		o.churnRate, int64(churnHorizon), len(sched.Events), crashes, o.rejoinFrac*100)
	if o.degreeCap > 0 {
		fmt.Printf("trees:               degree-bounded, fan-out cap %d\n", o.degreeCap)
	}

	var res member.Result
	hit := false
	if cache != nil {
		cr, ok, cerr := cache.Load(key)
		if cerr != nil {
			return cerr
		}
		if ok {
			res, hit = memberFromCache(cr), true
			fmt.Fprintln(os.Stderr, "netsim: result from cache", o.cacheDir)
		}
	}
	if !hit {
		net := wormhole.New(topo, cfg)
		net.SetFaults(plan)
		usage := trace.NewChannelUsage(topo)
		timeline := trace.NewTimeline()
		if o.gantt {
			net.SetObserver(trace.Multi{usage, timeline})
		}
		mainCfg := mcastsim.Config{Software: soft, AddrBytes: o.addrB, MaxCycles: o.deadline}
		res, err = member.Run(net, tab, ch, sched, o.bytes, recov.Config{
			Sim:       mainCfg,
			TEnd:      tend,
			Repair:    pol,
			DegreeCap: o.degreeCap,
			Seed:      o.seed,
		})
		if err != nil {
			return err
		}
		if cache != nil {
			if err := cache.Store(key, memberToCache(res)); err != nil {
				return err
			}
		}
		if o.gantt {
			defer func() {
				fmt.Println("\nmessage timeline ('!' marks blocked messages):")
				fmt.Print(timeline.Gantt(64))
				fmt.Println("\nhottest channels:")
				fmt.Print(usage.Report(10))
			}()
		}
	}

	oracleN := 0
	for i, ok := range res.Oracle {
		if ok && res.Member[i] {
			oracleN++
		}
	}
	oh := res.Overhead
	fmt.Printf("completion latency:  %d cycles (last delivery to a surviving member)\n", res.Latency)
	fmt.Printf("delivered:           %d/%d surviving members (oracle ceiling %d reachable)\n",
		res.Delivered, res.Delivered+res.Undelivered, oracleN-1)
	fmt.Printf("membership:          %d left, %d crashed for good\n", res.Left, res.Dead)
	fmt.Printf("messages sent:       %d (retransmits %d, repair sends %d, orphan sends %d, grafts %d, cancelled %d)\n",
		oh.Sends, oh.Retransmits, oh.RepairSends, oh.OrphanSends, res.Grafts, oh.Cancelled)
	fmt.Printf("give-ups (repairs):  %d\n", oh.Repairs)
	if res.FallbackAt >= 0 {
		fmt.Printf("policy:              %s, degraded to binomial over survivors at cycle %d\n", o.repairPolicy, res.FallbackAt)
	} else {
		fmt.Printf("policy:              %s throughout (no binomial degradation)\n", o.repairPolicy)
	}
	if o.verbose {
		printChurnDeliveries(ch, res)
	}
	return nil
}

// printChurnDeliveries lists every chain position with its membership
// state and delivery time at quiesce.
func printChurnDeliveries(ch chain.Chain, res member.Result) {
	fmt.Println("\npositions (node: cycle state):")
	for i, node := range ch {
		state := "member"
		switch {
		case !res.Alive[i]:
			state = "crashed"
		case !res.Member[i]:
			state = "left"
		}
		if res.Deliveries[i] < 0 {
			fmt.Printf("  %4d: -       %s\n", node, state)
		} else {
			fmt.Printf("  %4d: %-7d %s\n", node, res.Deliveries[i], state)
		}
	}
}

// memberToCache/memberFromCache round-trip a churn report through the
// cell cache: integer metrics widen to float64 exactly, and the
// per-position membership flags travel as 0/1 series.
func memberToCache(res member.Result) runner.Result {
	k := len(res.Deliveries)
	memb, alive, oracle := make([]int64, k), make([]int64, k), make([]int64, k)
	for i := 0; i < k; i++ {
		if res.Member[i] {
			memb[i] = 1
		}
		if res.Alive[i] {
			alive[i] = 1
		}
		if res.Oracle[i] {
			oracle[i] = 1
		}
	}
	oh := res.Overhead
	return runner.Result{
		Metrics: map[string]float64{
			"latency":      float64(res.Latency),
			"delivered":    float64(res.Delivered),
			"undelivered":  float64(res.Undelivered),
			"left":         float64(res.Left),
			"dead":         float64(res.Dead),
			"grafts":       float64(res.Grafts),
			"events":       float64(res.Events),
			"fallback_at":  float64(res.FallbackAt),
			"worms":        float64(res.Worms),
			"sends":        float64(oh.Sends),
			"retransmits":  float64(oh.Retransmits),
			"cancelled":    float64(oh.Cancelled),
			"repair_sends": float64(oh.RepairSends),
			"orphan_sends": float64(oh.OrphanSends),
			"repairs":      float64(oh.Repairs),
		},
		Series: map[string][]int64{
			"deliveries": res.Deliveries,
			"member":     memb,
			"alive":      alive,
			"oracle":     oracle,
		},
	}
}

func memberFromCache(r runner.Result) member.Result {
	k := len(r.Series["deliveries"])
	memb, alive, oracle := make([]bool, k), make([]bool, k), make([]bool, k)
	for i := 0; i < k; i++ {
		memb[i] = r.Series["member"][i] != 0
		alive[i] = r.Series["alive"][i] != 0
		oracle[i] = r.Series["oracle"][i] != 0
	}
	return member.Result{
		Latency:     int64(r.Metric("latency")),
		Deliveries:  r.Series["deliveries"],
		Member:      memb,
		Alive:       alive,
		Oracle:      oracle,
		Delivered:   int(r.Metric("delivered")),
		Undelivered: int(r.Metric("undelivered")),
		Left:        int(r.Metric("left")),
		Dead:        int(r.Metric("dead")),
		Overhead: mcastsim.Overhead{
			Sends:       int64(r.Metric("sends")),
			Retransmits: int64(r.Metric("retransmits")),
			Cancelled:   int64(r.Metric("cancelled")),
			RepairSends: int64(r.Metric("repair_sends")),
			OrphanSends: int64(r.Metric("orphan_sends")),
			Repairs:     int64(r.Metric("repairs")),
		},
		Grafts:     int64(r.Metric("grafts")),
		Events:     int(r.Metric("events")),
		FallbackAt: int64(r.Metric("fallback_at")),
		Worms:      int64(r.Metric("worms")),
	}
}

// trafficToCache/trafficFromCache round-trip the summary-relevant part
// of a traffic report through the cell cache: the full Metrics block
// plus per-request service times for -v. Integer fields widen to
// float64 exactly, and the float metrics survive because the cache's
// JSON encoding round-trips float64 bit for bit.
func trafficToCache(res traffic.Result) runner.Result {
	m := res.Metrics
	nr := len(res.Requests)
	arrive, start, done := make([]int64, nr), make([]int64, nr), make([]int64, nr)
	ks, sizes, algos := make([]int64, nr), make([]int64, nr), make([]int64, nr)
	for i, rr := range res.Requests {
		arrive[i], start[i], done[i] = rr.Arrive, rr.Start, rr.Done
		ks[i], sizes[i] = int64(rr.K), int64(rr.Bytes)
		algos[i] = int64(rr.Algo)
	}
	return runner.Result{
		Metrics: map[string]float64{
			"requests":           float64(m.Requests),
			"measured":           float64(m.Measured),
			"completed":          float64(m.Completed),
			"shed":               float64(m.Shed),
			"completed_measured": float64(m.CompletedMeasured),
			"shed_measured":      float64(m.ShedMeasured),
			"abandoned":          float64(m.AbandonedDests),
			"retransmits":        float64(m.Retransmits),
			"repair_sends":       float64(m.RepairSends),
			"cancelled":          float64(m.Cancelled),
			"warm_start":         float64(m.WarmStart),
			"last_arrival":       float64(m.LastArrival),
			"end":                float64(m.End),
			"offered":            m.OfferedPerMcycle,
			"delivered":          m.DeliveredPerMcycle,
			"p50":                m.P50,
			"p99":                m.P99,
			"p999":               m.P999,
			"mean_latency":       m.MeanLatency,
			"queue_delay":        m.MeanQueueDelay,
			"max_queue_delay":    float64(m.MaxQueueDelay),
			"occupancy":          m.MeanOccupancy,
			"worms":              float64(m.Worms),
			"blocked":            float64(m.BlockedCycles),
			"wait":               float64(m.InjectWaitCycles),
			"cycles":             float64(m.Cycles),
		},
		Series: map[string][]int64{
			"arrive": arrive, "start": start, "done": done, "k": ks, "bytes": sizes,
			"algo": algos,
		},
	}
}

func trafficFromCache(r runner.Result) traffic.Result {
	arrive := r.Series["arrive"]
	reqs := make([]traffic.RequestResult, len(arrive))
	for i := range reqs {
		start := r.Series["start"][i]
		// Entries written before the selector existed carry no algo
		// series; those runs were static (-1) by construction.
		algo := int64(-1)
		if a := r.Series["algo"]; a != nil {
			algo = a[i]
		}
		reqs[i] = traffic.RequestResult{
			Arrive: arrive[i],
			Start:  start,
			Done:   r.Series["done"][i],
			K:      int(r.Series["k"][i]),
			Bytes:  int(r.Series["bytes"][i]),
			Shed:   start < 0,
			Algo:   int(algo),
		}
	}
	return traffic.Result{
		Requests: reqs,
		Metrics: traffic.Metrics{
			Requests:           int(r.Metric("requests")),
			Measured:           int(r.Metric("measured")),
			Completed:          int(r.Metric("completed")),
			Shed:               int(r.Metric("shed")),
			CompletedMeasured:  int(r.Metric("completed_measured")),
			ShedMeasured:       int(r.Metric("shed_measured")),
			AbandonedDests:     int(r.Metric("abandoned")),
			Retransmits:        int64(r.Metric("retransmits")),
			RepairSends:        int64(r.Metric("repair_sends")),
			Cancelled:          int64(r.Metric("cancelled")),
			WarmStart:          int64(r.Metric("warm_start")),
			LastArrival:        int64(r.Metric("last_arrival")),
			End:                int64(r.Metric("end")),
			OfferedPerMcycle:   r.Metric("offered"),
			DeliveredPerMcycle: r.Metric("delivered"),
			P50:                r.Metric("p50"),
			P99:                r.Metric("p99"),
			P999:               r.Metric("p999"),
			MeanLatency:        r.Metric("mean_latency"),
			MeanQueueDelay:     r.Metric("queue_delay"),
			MaxQueueDelay:      int64(r.Metric("max_queue_delay")),
			MeanOccupancy:      r.Metric("occupancy"),
			Worms:              int64(r.Metric("worms")),
			BlockedCycles:      int64(r.Metric("blocked")),
			InjectWaitCycles:   int64(r.Metric("wait")),
			Cycles:             int64(r.Metric("cycles")),
		},
	}
}

// softwareKey canonically encodes the software cost model for cache
// keys (same encoding as internal/exp's cell keys).
func softwareKey(soft model.Software) string {
	enc := func(l model.Linear) string { return fmt.Sprintf("%g+%g/B", l.Fixed, l.PerByte) }
	return fmt.Sprintf("send=%s,recv=%s,hold=%s", enc(soft.Send), enc(soft.Recv), enc(soft.Hold))
}

// mcastToCache/mcastFromCache round-trip a plain simulation report
// through the cell cache. Every field is an int64 cycle or message
// count, so the float64 metric encoding is exact.
func mcastToCache(res mcastsim.Result) runner.Result {
	return runner.Result{
		Metrics: map[string]float64{
			"latency": float64(res.Latency),
			"worms":   float64(res.Worms),
			"blocked": float64(res.BlockedCycles),
			"wait":    float64(res.InjectWaitCycles),
			"cycles":  float64(res.Cycles),
		},
		Series: map[string][]int64{"deliveries": res.Deliveries},
	}
}

func mcastFromCache(r runner.Result) mcastsim.Result {
	return mcastsim.Result{
		Latency:          int64(r.Metric("latency")),
		Deliveries:       r.Series["deliveries"],
		Worms:            int64(r.Metric("worms")),
		BlockedCycles:    int64(r.Metric("blocked")),
		InjectWaitCycles: int64(r.Metric("wait")),
		Cycles:           int64(r.Metric("cycles")),
	}
}

// recoverToCache/recoverFromCache do the same for a reliable-delivery
// report, carrying the per-position statuses as an int64 series.
func recoverToCache(res recov.Result) runner.Result {
	status := make([]int64, len(res.Status))
	adopted := make([]int64, len(res.AdoptedBy))
	for i, s := range res.Status {
		status[i] = int64(s)
	}
	for i, a := range res.AdoptedBy {
		adopted[i] = int64(a)
	}
	oh := res.Overhead
	return runner.Result{
		Metrics: map[string]float64{
			"latency":      float64(res.Latency),
			"delivered":    float64(res.Delivered),
			"abandoned":    float64(res.Abandoned),
			"fallback_at":  float64(res.FallbackAt),
			"worms":        float64(res.Worms),
			"blocked":      float64(res.BlockedCycles),
			"wait":         float64(res.InjectWaitCycles),
			"cycles":       float64(res.Cycles),
			"sends":        float64(oh.Sends),
			"retransmits":  float64(oh.Retransmits),
			"cancelled":    float64(oh.Cancelled),
			"repair_sends": float64(oh.RepairSends),
			"orphan_sends": float64(oh.OrphanSends),
			"repairs":      float64(oh.Repairs),
		},
		Series: map[string][]int64{"deliveries": res.Deliveries, "status": status, "adopted_by": adopted},
	}
}

func recoverFromCache(r runner.Result) recov.Result {
	status := make([]mcastsim.DestStatus, len(r.Series["status"]))
	for i, s := range r.Series["status"] {
		status[i] = mcastsim.DestStatus(s)
	}
	adopted := make([]int, len(r.Series["adopted_by"]))
	for i, a := range r.Series["adopted_by"] {
		adopted[i] = int(a)
	}
	return recov.Result{
		Latency:    int64(r.Metric("latency")),
		Deliveries: r.Series["deliveries"],
		Status:     status,
		AdoptedBy:  adopted,
		Delivered:  int(r.Metric("delivered")),
		Abandoned:  int(r.Metric("abandoned")),
		Overhead: mcastsim.Overhead{
			Sends:       int64(r.Metric("sends")),
			Retransmits: int64(r.Metric("retransmits")),
			Cancelled:   int64(r.Metric("cancelled")),
			RepairSends: int64(r.Metric("repair_sends")),
			OrphanSends: int64(r.Metric("orphan_sends")),
			Repairs:     int64(r.Metric("repairs")),
		},
		FallbackAt:       int64(r.Metric("fallback_at")),
		Worms:            int64(r.Metric("worms")),
		BlockedCycles:    int64(r.Metric("blocked")),
		InjectWaitCycles: int64(r.Metric("wait")),
		Cycles:           int64(r.Metric("cycles")),
	}
}

// printRecoveredDeliveries lists every chain member in delivery order
// with its recovery status; abandoned members sort last.
func printRecoveredDeliveries(ch chain.Chain, res recov.Result) {
	type del struct {
		node   int
		at     int64
		status mcastsim.DestStatus
	}
	var ds []del
	for i, d := range res.Deliveries {
		ds = append(ds, del{node: ch[i], at: d, status: res.Status[i]})
	}
	sort.Slice(ds, func(i, j int) bool {
		ai, aj := ds[i].at, ds[j].at
		if (ai < 0) != (aj < 0) {
			return aj < 0 // delivered before abandoned
		}
		if ai != aj {
			return ai < aj
		}
		return ds[i].node < ds[j].node
	})
	fmt.Println("\ndeliveries (node: cycle status):")
	for _, d := range ds {
		if d.at < 0 {
			fmt.Printf("  %4d: -     %s\n", d.node, d.status)
		} else {
			fmt.Printf("  %4d: %-6d%s\n", d.node, d.at, d.status)
		}
	}
}
