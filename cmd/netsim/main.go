// Command netsim runs the paper's method in one command on the
// flit-level simulator: it measures t_end with a calibration unicast,
// builds the split table over the architecture's chain and simulates
// the tree, reporting latency, contention and per-node delivery times.
//
// The modes are a plain multicast, reliable delivery under faults
// (-recover), open-system traffic (-traffic), a multicast under
// membership churn (-churn), and crossover-surface algorithm selection
// (-autotune, with the plain, -recover and -traffic modes). All of them
// share one validated option set, one algorithm table, one result cache
// path and one -trace/-heatmap view path.
//
// Usage:
//
//	netsim -topo mesh -w 16 -h 16 -algo opt -k 32 -bytes 4096
//	netsim -topo bmin -nodes 128 -algo binomial -k 16 -bytes 65536 -seed 7
//	netsim -topo bfly -nodes 64 -algo opt-tree -k 24 -bytes 8192 -v
//	netsim -topo mesh -algo opt -faults 5 -fault-seed 3 -deadline 200000
//	netsim -topo mesh -algo opt -faults 5 -recover -v
//	netsim -topo mesh -traffic -rate 400 -arrival bursty -admission bounded
//	netsim -topo bmin -traffic -rate 800 -skew 0.5 -v
//	netsim -topo mesh -churn -churn-rate 800 -rejoin 0.5 -repair incr
//	netsim -topo bmin -churn -churn-rate 1600 -degree-cap 3 -v
//	netsim -topo mesh -autotune -k 32 -bytes 4096
//	netsim -topo mesh -traffic -autotune -faults 3 -rate 200 -v
//	netsim -w 1024 -h 1024 -k 64 -bytes 4096 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/bfly"
	"repro/internal/bmin"
	"repro/internal/chain"
	"repro/internal/cpuprof"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/mcastsim"
	"repro/internal/member"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/torus"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/tuner"
	"repro/internal/wormhole"
)

func main() {
	var o options
	flag.StringVar(&o.topo, "topo", "mesh", "fabric: mesh, torus, bmin, bfly")
	flag.IntVar(&o.w, "w", 16, "mesh width")
	flag.IntVar(&o.h, "h", 16, "mesh height")
	flag.IntVar(&o.nodes, "nodes", 128, "bmin/bfly node count (power of two)")
	flag.StringVar(&o.policy, "policy", "straight", "bmin ascent policy: straight, dest, adaptive, adaptive-dest")
	flag.StringVar(&o.algo, "algo", "opt", "algorithm: opt (architecture chain), opt-tree (unordered), binomial, sequential")
	flag.IntVar(&o.k, "k", 32, "multicast size (source + k-1 destinations)")
	flag.IntVar(&o.bytes, "bytes", 4096, "message size in bytes")
	flag.Uint64Var(&o.seed, "seed", 1, "placement seed")
	flag.IntVar(&o.addrB, "addrbytes", 0, "payload bytes charged per carried destination address")
	flag.BoolVar(&o.verbose, "v", false, "print per-node delivery times")
	flag.BoolVar(&o.gantt, "trace", false, "print a message-timeline Gantt chart and the hottest channels")
	flag.BoolVar(&o.heatmap, "heatmap", false, "print a mesh link-utilization heatmap (mesh only)")
	flag.Float64Var(&o.faults, "faults", 0, "percent of fabric links to kill (dead links, routed around or unreachable)")
	flag.Float64Var(&o.degraded, "degraded", 0, "percent of fabric links at 1/4 bandwidth")
	flag.Float64Var(&o.flaky, "flaky", 0, "percent of fabric links with periodic transient outages")
	flag.Uint64Var(&o.faultSeed, "fault-seed", 1, "fault plan seed (same seed = same failed links)")
	flag.Int64Var(&o.deadline, "deadline", 0, "abort the multicast after this many cycles (0 = generous default)")
	flag.BoolVar(&o.recover, "recover", false, "run the reliable-delivery layer (timeout/retransmit, tree repair, binomial fallback); requires a fault flag")
	flag.StringVar(&o.cacheDir, "cache", "", "result cache directory (reuse an identical prior run; ignored with -trace/-heatmap)")
	flag.BoolVar(&o.traffic, "traffic", false, "run sustained open-system traffic (seeded arrivals at -rate) instead of a single multicast")
	flag.Float64Var(&o.rate, "rate", 200, "traffic: offered load in requests per million cycles")
	flag.StringVar(&o.arrival, "arrival", "poisson", "traffic: arrival process, poisson or bursty")
	flag.StringVar(&o.admission, "admission", "fifo", "traffic: admission policy, fifo (unbounded queue) or bounded (overflow is shed)")
	flag.Float64Var(&o.skew, "skew", 0, "traffic: fraction of destination draws aimed at a seeded hot set (0 = uniform)")
	flag.BoolVar(&o.churn, "churn", false, "run the multicast under a seeded membership churn schedule (joins, leaves, crashes, rejoins)")
	flag.Float64Var(&o.churnRate, "churn-rate", 400, "churn: membership events per million cycles")
	flag.Float64Var(&o.rejoinFrac, "rejoin", exp.ChurnRejoinFrac, "churn: fraction of crashed members that rejoin after the outage window")
	flag.StringVar(&o.repairPolicy, "repair", "incr", "churn: repair policy, full (re-plan), incr (graft/excise), binom (binomial over survivors)")
	flag.IntVar(&o.degreeCap, "degree-cap", 0, "churn: per-node fan-out cap for degree-bounded trees (0 = one-port split table)")
	flag.BoolVar(&o.autotune, "autotune", false, "train a crossover surface on the healthy fabric and let the tuner pick the algorithm (overrides -algo); with -traffic the policy re-picks per request and switches live on observed drift")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof reads it)")
	memprofile := flag.String("memprofile", "", "write the allocs profile of the run to this file after it ends (go tool pprof reads it)")
	flag.Parse()

	if err := cpuprof.Run(*cpuprofile, *memprofile, func() error { return run(o) }); err != nil {
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
	cacheDir                string // result cache directory, "" = off

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

// algos is the algorithm table: every -algo value with its chain order
// and split-table builder. The first three rows are the -autotune
// candidates in surface index order, so the surface's tie-break prefers
// binomial: with equal measured latency the topology-blind tree is the
// safer pick under drift.
var algos = exp.TunerAlgos([]exp.Algorithm{
	exp.Binomial("binomial"), exp.OptUnordered("opt-tree"), exp.Opt("opt"), exp.Sequential("sequential"),
})

// algoNamed looks a -algo value up in the algorithm table.
func algoNamed(name string) (tuner.Algo, bool) {
	for _, a := range algos {
		if a.Name == name {
			return a, true
		}
	}
	return tuner.Algo{}, false
}

var ascentPolicies = map[string]bmin.AscentPolicy{
	"straight":      bmin.AscentStraight,
	"dest":          bmin.AscentDest,
	"adaptive":      bmin.AscentAdaptive,
	"adaptive-dest": bmin.AscentAdaptiveDest,
}

// repairPolicies are the policies -repair selects, each by its String.
var repairPolicies = []mcastsim.RepairPolicy{mcastsim.RepairFull, mcastsim.RepairIncremental, mcastsim.RepairBinomial}

// repairPolicy returns the policy whose String is name.
func repairPolicy(name string) (mcastsim.RepairPolicy, error) {
	names := make([]string, len(repairPolicies))
	for i, p := range repairPolicies {
		if names[i] = p.String(); names[i] == name {
			return p, nil
		}
	}
	last := len(names) - 1
	return 0, fmt.Errorf("unknown repair policy %q (want %s or %s)", name, strings.Join(names[:last], ", "), names[last])
}

// Fixed shape of a CLI traffic run: enough arrivals for stable
// steady-state quantiles at interactive speed.
const (
	trafficRequests = 64
	trafficWarmup   = 8
)

// faulted reports whether any channel fault flag is set.
func (o options) faulted() bool { return o.faults > 0 || o.degraded > 0 || o.flaky > 0 }

// faultKey renders the fault flags for cache keys.
func (o options) faultKey() string {
	return fmt.Sprintf("dead=%g,degraded=%g,flaky=%g", o.faults, o.degraded, o.flaky)
}

// maxChannels is the channel budget of a netsim fabric, 2^26 (about 67
// million). The topologies compute their channels from coordinates, but
// the kernel keeps a 4-byte owner per channel, so a fabric that passes
// the int32 ID checks can still need gigabytes: an 18000×18000 mesh has
// about 1.94 billion channels. The budget leaves room for the 1024×1024
// mesh (about 6.3 million channels) and the 65536-node BMIN (about 2.1
// million).
const maxChannels = 1 << 26

// fabric is a built -topo fabric with its chain order and its name in
// cache keys.
type fabric struct {
	topo     wormhole.Topology
	less     func(a, b int) bool
	mesh     *mesh.Mesh // the -heatmap target; nil off-mesh
	platform string
}

// newFabric builds the -topo fabric and checks it against the channel
// budget. The constructors keep no per-node or per-channel table, so a
// fabric of any size is cheap to build; only wormhole.New allocates per
// channel. Errors name the size flags.
func (o options) newFabric() (f fabric, err error) {
	sizeFlags := fmt.Sprintf("-w=%d -h=%d", o.w, o.h)
	switch o.topo {
	case "mesh":
		var m *mesh.Mesh
		if m, err = mesh.TryNew(o.w, o.h); err == nil {
			f = fabric{topo: m, less: m.DimOrderLess, mesh: m, platform: fmt.Sprintf("mesh%dx%d", o.w, o.h)}
		}
	case "torus":
		var tr *torus.Torus
		if tr, err = torus.TryNew(o.w, o.h); err == nil {
			f = fabric{topo: tr, less: tr.DimOrderLess, platform: fmt.Sprintf("torus%dx%d", o.w, o.h)}
		}
	case "bmin":
		sizeFlags = fmt.Sprintf("-nodes=%d", o.nodes)
		// An unknown -policy sizes the fabric as straight ascent would;
		// validate rejects it after the size checks.
		var b *bmin.BMIN
		if b, err = bmin.TryNew(o.nodes, ascentPolicies[o.policy]); err == nil {
			f = fabric{topo: b, less: b.LexLess, platform: fmt.Sprintf("bmin%d/%s", o.nodes, o.policy)}
		}
	case "bfly":
		sizeFlags = fmt.Sprintf("-nodes=%d", o.nodes)
		var b *bfly.Butterfly
		if b, err = bfly.TryNew(o.nodes); err == nil {
			f = fabric{topo: b, less: b.LexLess, platform: fmt.Sprintf("bfly%d", o.nodes)}
		}
	default:
		return f, fmt.Errorf("unknown topology %q", o.topo)
	}
	if err != nil {
		return f, fmt.Errorf("%s: %w", sizeFlags, err)
	}
	if chans := f.topo.NumChannels(); chans > maxChannels {
		return f, fmt.Errorf("%s: a %s of %d nodes has %d channels, over netsim's budget of %d",
			sizeFlags, o.topo, f.topo.NumNodes(), chans, maxChannels)
	}
	return f, nil
}

// validate holds every CLI rule: flag ranges, flag combinations,
// topology sizes and the k range. It builds the fabric only to read its
// size; the library configs (traffic.Config, member.GenSchedule,
// fault.NewPlan) still check their own fields.
func (o options) validate() error {
	f, err := o.newFabric()
	if err != nil {
		return err
	}
	n := f.topo.NumNodes()
	if _, ok := ascentPolicies[o.policy]; o.topo == "bmin" && !ok {
		return fmt.Errorf("unknown policy %q", o.policy)
	}
	if _, ok := algoNamed(o.algo); !ok {
		return fmt.Errorf("unknown algorithm %q", o.algo)
	}
	if o.k < 2 {
		return fmt.Errorf("-k=%d: a multicast needs a source and at least one destination", o.k)
	}
	if o.k > n {
		return fmt.Errorf("-k=%d exceeds fabric size %d", o.k, n)
	}
	if o.bytes < 0 {
		return fmt.Errorf("-bytes=%d must be >= 0", o.bytes)
	}
	if o.addrB < 0 {
		return fmt.Errorf("-addrbytes=%d must be >= 0", o.addrB)
	}
	if o.deadline < 0 {
		return fmt.Errorf("-deadline=%d must be >= 0 (0 = generous default)", o.deadline)
	}
	for _, p := range []struct {
		name string
		pct  float64
	}{{"-faults", o.faults}, {"-degraded", o.degraded}, {"-flaky", o.flaky}} {
		if !(p.pct >= 0 && p.pct <= 100) {
			return fmt.Errorf("%s=%g outside [0,100] (a percentage of fabric links)", p.name, p.pct)
		}
	}
	if o.recover && !o.faulted() {
		return fmt.Errorf("-recover needs something to recover from: set -faults, -degraded or -flaky")
	}
	if o.heatmap && o.topo != "mesh" {
		return fmt.Errorf("-heatmap requires a 2-D mesh fabric, not %q (use -trace for per-channel reports on other topologies)", o.topo)
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
	if o.traffic && o.churn {
		return fmt.Errorf("-traffic and -churn are different drive loops; pick one")
	}
	if o.traffic {
		if !(o.rate > 0 && o.rate <= math.MaxFloat64) {
			return fmt.Errorf("-rate=%g: offered rate must be > 0 and finite (requests/Mcycle)", o.rate)
		}
		if !(o.skew >= 0 && o.skew <= 1) {
			return fmt.Errorf("-skew=%g outside [0,1]", o.skew)
		}
	}
	if !o.churn {
		return nil
	}
	if _, err := repairPolicy(o.repairPolicy); err != nil {
		return err
	}
	if !(o.churnRate >= 0) {
		return fmt.Errorf("-churn-rate=%g must be >= 0 events/Mcycle", o.churnRate)
	}
	if !(o.rejoinFrac >= 0 && o.rejoinFrac <= 1) {
		return fmt.Errorf("-rejoin=%g outside [0,1]", o.rejoinFrac)
	}
	if o.degreeCap < 0 {
		return fmt.Errorf("-degree-cap=%d must be >= 0", o.degreeCap)
	}
	if pool := exp.ChurnPool(o.k); o.k+pool > n {
		return fmt.Errorf("-k=%d plus a %d-node joiner pool exceeds fabric size %d", o.k, pool, n)
	}
	return nil
}

// session is one validated invocation: the built fabric, the measured
// parameters, the result cache and the live views every mode shares.
type session struct {
	o options
	fabric
	n int

	cfg         wormhole.Config
	soft        model.Software
	thold, tend model.Time
	cache       *runner.Cache // nil when off or bypassed
	replayed    int           // results served from the cache
	algo        tuner.Algo    // the -algo row, or -autotune's pick
	pol         *tuner.Policy // -autotune's policy, nil otherwise

	usage    *trace.ChannelUsage // -trace/-heatmap observers of the measured run
	timeline *trace.Timeline
}

// newSession builds the fabric from validated options.
func newSession(o options) (*session, error) {
	f, err := o.newFabric()
	if err != nil {
		return nil, err
	}
	return &session{o: o, fabric: f, n: f.topo.NumNodes(), cfg: wormhole.DefaultConfig(), soft: model.DefaultSoftware()}, nil
}

// run validates o, builds the fabric, measures t_end and runs the
// selected mode through the shared cache and view path.
func run(o options) (err error) {
	if err := o.validate(); err != nil {
		return err
	}
	s, err := newSession(o)
	if err != nil {
		return err
	}
	var plan *fault.Plan // -churn compiles its own, with the schedule's outages
	if o.faulted() && !o.churn {
		if plan, err = s.faultPlan(nil); err != nil {
			return err
		}
	}

	// Measure t_end on this fabric for the OPT shapes.
	addrs := sim.NewRNG(o.seed).Sample(s.n, o.k)
	s.tend, err = mcastsim.Unicast(wormhole.New(s.topo, s.cfg), addrs[0], addrs[len(addrs)-1], o.bytes,
		mcastsim.Config{Software: s.soft, AddrBytes: o.addrB})
	if err != nil {
		return err
	}
	s.thold = s.soft.Hold.At(o.bytes)

	// A live view is the output of its run, so it bypasses the cache.
	if o.cacheDir != "" && (o.gantt || o.heatmap) {
		fmt.Fprintln(os.Stderr, "netsim: -trace/-heatmap need a live run; ignoring -cache")
	} else if o.cacheDir != "" {
		if s.cache, err = runner.OpenCache(o.cacheDir); err != nil {
			return err
		}
		defer func() {
			if cerr := s.cache.Close(); err == nil {
				err = cerr
			}
		}()
	}
	s.algo, _ = algoNamed(o.algo)
	if o.autotune {
		if s.pol, err = s.trainPolicy(); err != nil {
			return err
		}
		// Single-shot modes run the surface's static pick; -traffic hands
		// the whole policy to the engine for per-request selection.
		s.algo = autotuneAlgos[s.pol.PickFor(o.k, o.bytes)]
	}
	switch {
	case o.traffic:
		err = s.runTraffic(plan)
	case o.churn:
		err = s.runChurn()
	default:
		err = s.runSingle(addrs, plan)
	}
	if err != nil {
		return err
	}
	if s.replayed > 0 {
		fmt.Fprintf(os.Stderr, "netsim: %d result(s) from cache %s\n", s.replayed, o.cacheDir)
	}
	if o.gantt {
		fmt.Println("\nmessage timeline ('!' marks blocked messages):")
		fmt.Print(s.timeline.Gantt(64))
		fmt.Println("\nhottest channels:")
		fmt.Print(s.usage.Report(10))
	}
	if o.heatmap {
		fmt.Println()
		fmt.Print(trace.MeshHeatmap(s.mesh, s.usage))
	}
	return nil
}

// faultPlan compiles the fault flags plus any node outage windows.
func (s *session) faultPlan(outages []fault.NodeOutage) (*fault.Plan, error) {
	return fault.NewPlan(s.topo, fault.Spec{
		DeadFrac:     s.o.faults / 100,
		DegradedFrac: s.o.degraded / 100,
		FlakyFrac:    s.o.flaky / 100,
		NodeOutages:  outages,
		Seed:         s.o.faultSeed,
	})
}

// network returns a fresh network for a measured run under plan, with
// the -trace/-heatmap observers attached when either view is on.
func (s *session) network(plan *fault.Plan) *wormhole.Network {
	net := wormhole.New(s.topo, s.cfg)
	if plan != nil {
		net.SetFaults(plan)
	}
	if s.o.gantt || s.o.heatmap {
		s.usage, s.timeline = trace.NewChannelUsage(s.topo), trace.NewTimeline()
		net.SetObserver(trace.Multi{s.usage, s.timeline})
	}
	return net
}

// chain orders addrs the way algorithm a expects.
func (s *session) chain(a tuner.Algo, addrs []int) chain.Chain {
	if a.Ordered {
		return chain.New(addrs, s.less)
	}
	return chain.Unordered(addrs)
}

// key is the cache identity every netsim run shares: the fabric, the
// software model, the workload and the measured parameters.
func (s *session) key(mode, algo, extra string) runner.Key {
	return runner.Key{
		Mode: mode, Platform: s.platform, Algo: algo, Soft: exp.SoftwareKey(s.soft),
		K: s.o.k, Bytes: s.o.bytes, Seed: s.o.seed, AddrBytes: s.o.addrB, THold: s.thold, TEnd: s.tend,
		Extra: extra,
	}
}

// cached returns the engine result the cache holds for key, or runs
// live and stores it. The result travels as its own type's JSON in the
// entry's Payload, which round-trips every int64 and float64 exactly.
// An entry without a payload, or with one that does not decode, is a
// miss: the run recomputes and stores a new entry, which replaces it on
// the next open. hit reports a replay.
func cached[T any](s *session, key runner.Key, live func() (T, error)) (res T, hit bool, err error) {
	if s.cache != nil {
		if r, ok := s.cache.Load(key); ok && len(r.Payload) > 0 && json.Unmarshal(r.Payload, &res) == nil {
			s.replayed++
			return res, true, nil
		}
	}
	if res, err = live(); err != nil || s.cache == nil {
		return res, false, err
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return res, false, fmt.Errorf("encode %s result: %w", key.Mode, err)
	}
	return res, false, s.cache.Store(key, runner.Result{Payload: payload})
}

// printHeader prints the lines every mode opens with: fabric and
// workload, the fault plan when there is one, the measured parameters.
func (s *session) printHeader(algo, kNote string, plan *fault.Plan, planNote string) {
	fmt.Printf("fabric: %s (%d nodes)   algorithm: %s   k=%d%s   message=%d bytes\n",
		s.o.topo, s.n, algo, s.o.k, kNote, s.o.bytes)
	if plan != nil {
		fmt.Printf("faults: %s%s\n", plan, planNote)
	}
	fmt.Printf("measured parameters: t_hold=%d  t_end=%d  (ratio %.3f)\n",
		s.thold, s.tend, float64(s.thold)/float64(s.tend))
}

// runSingle runs one multicast over the calibration placement: plain,
// or through the reliable-delivery layer with -recover.
func (s *session) runSingle(addrs []int, plan *fault.Plan) error {
	o := s.o
	ch := s.chain(s.algo, addrs)
	tab := s.algo.Table(o.k, s.thold, s.tend)
	root, _ := ch.Index(addrs[0])
	simCfg := mcastsim.Config{Software: s.soft, AddrBytes: o.addrB, MaxCycles: o.deadline}

	key := s.key("netsim", s.algo.Name, fmt.Sprintf("deadline=%d", o.deadline))
	if plan != nil {
		key.FaultSeed = o.faultSeed
		key.Extra = fmt.Sprintf("%s,deadline=%d", o.faultKey(), o.deadline)
	}
	s.printHeader(s.algo.Name, "", plan, "")

	if o.recover {
		key.Mode = "netsim-recover"
		res, _, err := cached(s, key, func() (mcastsim.ReliableResult, error) {
			return mcastsim.RunReliable(s.network(plan), tab, ch, root, o.bytes, mcastsim.ReliableConfig{Sim: simCfg, TEnd: s.tend, Seed: o.seed})
		})
		if err != nil {
			return err
		}
		var counts [4]int
		for i, st := range res.Status {
			if i != root {
				counts[st]++
			}
		}
		oh := res.Overhead
		fmt.Printf("completion latency:  %d cycles\n", res.Latency)
		fmt.Printf("delivered:           %d/%d destinations (%d first-try, %d retried, %d adopted, %d abandoned)\n",
			res.Delivered, o.k-1, counts[mcastsim.StatusDelivered], counts[mcastsim.StatusRetried],
			counts[mcastsim.StatusAdopted], counts[mcastsim.StatusAbandoned])
		fmt.Printf("messages sent:       %d (retransmits %d, repair sends %d, orphan sends %d, cancelled %d)\n",
			oh.Sends, oh.Retransmits, oh.RepairSends, oh.OrphanSends, oh.Cancelled)
		fmt.Printf("give-ups (repairs):  %d\n", oh.Repairs)
		if res.FallbackAt >= 0 {
			fmt.Printf("policy:              fell back to binomial over survivors at cycle %d\n", res.FallbackAt)
		} else {
			fmt.Printf("policy:              %s tree throughout (no binomial fallback)\n", s.algo.Name)
		}
		fmt.Printf("contention:          %d blocked header cycles\n", res.BlockedCycles)
		fmt.Printf("one-port wait:       %d cycles\n", res.InjectWaitCycles)
		fmt.Printf("fabric cycles:       %d\n", res.Cycles)
		if o.verbose {
			printRecoveredDeliveries(ch, res)
		}
		return nil
	}

	res, _, err := cached(s, key, func() (mcastsim.Result, error) {
		return mcastsim.Run(s.network(plan), tab, ch, root, o.bytes, simCfg)
	})
	if err != nil {
		return err
	}
	fmt.Printf("multicast latency:   %d cycles\n", res.Latency)
	fmt.Printf("messages sent:       %d\n", res.Worms)
	fmt.Printf("contention:          %d blocked header cycles\n", res.BlockedCycles)
	fmt.Printf("one-port wait:       %d cycles\n", res.InjectWaitCycles)
	fmt.Printf("fabric cycles:       %d\n", res.Cycles)
	if o.verbose {
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
	return nil
}

// runTraffic drives the open-system engine: seeded arrivals at the
// configured rate, every request a k-node multicast of the configured
// size, planned by the chosen algorithm under the measured parameters.
func (s *session) runTraffic(plan *fault.Plan) error {
	o := s.o
	hotNodes := max(2, s.n/8)
	tcfg := traffic.Config{
		Software:  s.soft,
		AddrBytes: o.addrB,
		Arrival:   traffic.ArrivalSpec{Kind: o.arrival, RatePerMcycle: o.rate},
		Load:      traffic.Workload{Ks: []int{o.k}, Sizes: []int{o.bytes}, HotFrac: o.skew, HotNodes: hotNodes},
		Admit:     traffic.Admission{Policy: o.admission},
		Requests:  trafficRequests,
		Warmup:    trafficWarmup,
		Plan:      s.algo.Table,
		TEnd:      func(int) model.Time { return s.tend },
		Reliable:  plan != nil,
		Seed:      o.seed,
		MaxCycles: o.deadline,
	}
	if s.algo.Ordered || s.pol != nil {
		// The tuner mixes ordered and unordered candidates per request,
		// so the chain order must always be available.
		tcfg.Less = s.less
	}
	algoLabel := s.algo.Name
	if s.pol != nil {
		tcfg.Tuner = s.pol
		algoLabel = "auto"
	}

	key := s.key("netsim-traffic", algoLabel,
		fmt.Sprintf("rate=%g,arr=%s,adm=%s,skew=%g,req=%d,warm=%d,deadline=%d",
			o.rate, o.arrival, o.admission, o.skew, trafficRequests, trafficWarmup, o.deadline))
	if plan != nil {
		key.FaultSeed = o.faultSeed
		key.Extra += "," + o.faultKey()
	}
	if s.pol != nil {
		// The tuned run is a pure function of flags plus the trained
		// surface, so the surface's content hash joins the key.
		key.Extra += fmt.Sprintf(",autotune=1,win=%d,train=%d,surface=%.16s",
			autotuneWindow, autotuneTrials, s.pol.SurfaceHash())
	}

	s.printHeader(algoLabel, "", plan, "   (reliable delivery on)")
	fmt.Printf("traffic:             %s arrivals at %g req/Mcycle, %s admission\n",
		o.arrival, o.rate, o.admission)
	if o.skew > 0 {
		fmt.Printf("hot spot:            %.0f%% of destination draws -> %d-node hot set\n", o.skew*100, hotNodes)
	}

	res, hit, err := cached(s, key, func() (traffic.Result, error) {
		return traffic.Run(s.network(plan), tcfg)
	})
	if err != nil {
		return err
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
	if s.pol != nil {
		printAutotuneTraffic(s.pol, res.Requests, hit, s.tend)
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

// runChurn drives the membership engine: a reliable multicast of the
// k-member group while a seeded churn schedule fires joins, leaves,
// crashes and rejoins, with crash windows compiled into the fault plan
// next to any requested channel faults.
func (s *session) runChurn() error {
	o := s.o
	pool := exp.ChurnPool(o.k)
	addrs := sim.NewRNG(o.seed).Sample(s.n, o.k+pool)
	members, joiners := addrs[:o.k], addrs[o.k:]
	sched, err := member.GenSchedule(member.ChurnSpec{
		RatePerMcycle: o.churnRate,
		Horizon:       exp.ChurnHorizon,
		RejoinFrac:    o.rejoinFrac,
		DownCycles:    exp.ChurnDownCycles,
		Seed:          o.faultSeed,
	}, members, joiners)
	if err != nil {
		return err
	}
	plan, err := s.faultPlan(sched.Outages)
	if err != nil {
		return err
	}
	ch := s.chain(s.algo, addrs)
	tab := s.algo.Table(len(ch), s.thold, s.tend)
	repair, _ := repairPolicy(o.repairPolicy) // validate checked the name

	key := s.key("netsim-churn", s.algo.Name,
		fmt.Sprintf("rate=%g,rejoin=%g,repair=%s,cap=%d,pool=%d,horizon=%d,down=%d,%s,deadline=%d",
			o.churnRate, o.rejoinFrac, o.repairPolicy, o.degreeCap, pool,
			exp.ChurnHorizon, exp.ChurnDownCycles, o.faultKey(), o.deadline))
	key.FaultSeed = o.faultSeed

	s.printHeader(s.algo.Name, fmt.Sprintf(" (+%d joiner pool)", pool), plan, "")
	fmt.Printf("churn:               %g events/Mcycle over %d cycles: %d events (%d crashes), rejoin %.0f%%\n",
		o.churnRate, exp.ChurnHorizon, len(sched.Events), len(sched.Outages), o.rejoinFrac*100)
	if o.degreeCap > 0 {
		fmt.Printf("trees:               degree-bounded, fan-out cap %d\n", o.degreeCap)
	}

	res, _, err := cached(s, key, func() (member.Result, error) {
		return member.Run(s.network(plan), tab, ch, sched, o.bytes, mcastsim.ReliableConfig{
			Sim:       mcastsim.Config{Software: s.soft, AddrBytes: o.addrB, MaxCycles: o.deadline},
			TEnd:      s.tend,
			Repair:    repair,
			DegreeCap: o.degreeCap,
			Seed:      o.seed,
		})
	})
	if err != nil {
		return err
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

// printRecoveredDeliveries lists every chain member in delivery order
// with its recovery status; abandoned members sort last.
func printRecoveredDeliveries(ch chain.Chain, res mcastsim.ReliableResult) {
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
