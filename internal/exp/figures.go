package exp

import (
	"fmt"

	"repro/internal/bmin"
	"repro/internal/chain"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/mcastsim"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/temporal"
	"repro/internal/wormhole"
)

// Figure1 reproduces the paper's worked example (its Figure 1): a 6×6
// mesh, 7 destinations, t_hold = 20, t_end = 55. The OPT-mesh tree
// achieves the theoretical optimum of 130 while the U-mesh binomial tree
// needs 165. These numbers are analytic and must match the paper exactly.
type Figure1Result struct {
	THold, TEnd model.Time
	Nodes       int
	OptLatency  model.Time // paper: 130
	UMeshLat    model.Time // paper: 165
	OptTree     *core.Tree // chain-indexed OPT tree from source position 0
	UMeshTree   *core.Tree
}

// Figure1 computes the worked example.
func Figure1() (*Figure1Result, error) {
	const k = 8
	const thold, tend = 20, 55
	seg := chain.Segment{L: 0, R: k - 1}
	opt, err := plan.Tree(core.NewOptTable(k, thold, tend), seg, 0)
	if err != nil {
		return nil, err
	}
	um, err := plan.Tree(core.BinomialTable{Max: k}, seg, 0)
	if err != nil {
		return nil, err
	}
	return &Figure1Result{
		THold:      thold,
		TEnd:       tend,
		Nodes:      k,
		OptLatency: opt.Eval(thold, tend),
		UMeshLat:   um.Eval(thold, tend),
		OptTree:    opt,
		UMeshTree:  um,
	}, nil
}

// DefaultSizes is Figure 2's x axis: 0 KB to 64 KB in 8 KB steps. A zero
// -byte multicast still carries a header flit, matching the paper's "0k"
// point.
func DefaultSizes() []int {
	sizes := make([]int, 0, 9)
	for s := 0; s <= 64*1024; s += 8 * 1024 {
		sizes = append(sizes, s)
	}
	return sizes
}

// DefaultNodeCounts is Figure 3's x axis on a 256-node mesh.
func DefaultNodeCounts(maxNodes int) []int {
	all := []int{4, 8, 16, 32, 48, 64, 96, 128, 192, 256}
	var out []int
	for _, k := range all {
		if k <= maxNodes {
			out = append(out, k)
		}
	}
	return out
}

// MeshAlgorithms is the series set of Figures 2 and 3: U-mesh, OPT-tree,
// OPT-mesh.
func MeshAlgorithms() []Algorithm {
	return []Algorithm{Binomial("U-mesh"), OptUnordered("OPT-tree"), Opt("OPT-mesh")}
}

// BMINAlgorithms is the BMIN counterpart: U-min, OPT-tree, OPT-min.
func BMINAlgorithms() []Algorithm {
	return []Algorithm{Binomial("U-min"), OptUnordered("OPT-tree"), Opt("OPT-min")}
}

// Figure2 regenerates "Comparison of 32-node multicast trees on a 16x16
// mesh": message size sweep, three series.
func Figure2(s *Suite) (*Table, error) {
	return s.SweepSizes("Figure 2: 32-node multicast trees on a "+s.Platform.Name, 32, DefaultSizes(), MeshAlgorithms())
}

// Figure2b is the 128-node variant the paper reports as "quite similar".
func Figure2b(s *Suite) (*Table, error) {
	return s.SweepSizes("Figure 2b: 128-node multicast trees on a "+s.Platform.Name, 128, DefaultSizes(), MeshAlgorithms())
}

// Figure3 regenerates "Comparison of 4-Kbyte multicast trees on a 16x16
// mesh": node count sweep at 4 KB.
func Figure3(s *Suite) (*Table, error) {
	return s.SweepNodes("Figure 3: 4-Kbyte multicast trees on a "+s.Platform.Name, 4096, DefaultNodeCounts(s.Platform.Nodes), MeshAlgorithms())
}

// BMINSizes regenerates the BMIN size sweep the paper ran with "the same
// network parameters used in the mesh experiments" and omitted for space.
func BMINSizes(s *Suite) (*Table, error) {
	return s.SweepSizes("BMIN-2: 32-node multicast trees on a "+s.Platform.Name, 32, DefaultSizes(), BMINAlgorithms())
}

// BMINNodes is the BMIN node-count sweep at 4 KB.
func BMINNodes(s *Suite) (*Table, error) {
	return s.SweepNodes("BMIN-3: 4-Kbyte multicast trees on a "+s.Platform.Name, 4096, DefaultNodeCounts(s.Platform.Nodes), BMINAlgorithms())
}

// ContentionComparison quantifies the paper's Section 5 observation that
// "the contention overhead in the OPT-tree is less severe" on the BMIN
// than on the mesh, because turnaround routing offers multiple paths.
// Rows are message sizes; columns are mean blocked cycles of the
// unordered OPT-tree on each platform, plus its tuned (contention-free)
// counterpart as a zero baseline.
func ContentionComparison(meshSuite, bminSuite *Suite, k int, sizes []int) (*Table, error) {
	cols := []series{
		{meshSuite, OptUnordered("OPT-tree")}, {meshSuite, Opt("OPT-mesh")},
		{bminSuite, OptUnordered("OPT-tree")}, {bminSuite, Opt("OPT-min")},
	}
	t := &Table{
		Title:  fmt.Sprintf("Contention overhead of the unordered OPT-tree (%d-node multicast)", k),
		XLabel: "message size (bytes)",
		YLabel: "mean blocked cycles per multicast",
	}
	for _, c := range cols {
		t.Algorithms = append(t.Algorithms, c.algo.Name+" @ "+c.suite.Platform.Name)
	}
	res, err := sweepGrid(t, cols, sizes, func(int) int { return k }, func(x int) int { return x })
	if res == nil {
		return t, err
	}
	fill(t, sizes, func(r, c int) Cell { return blockedCell(res.latencyCell(r, c)) })
	return t, nil
}

// blockedCell re-centers a cell on its contention metric so the shared
// renderer can print contention tables.
func blockedCell(c Cell) Cell {
	return Cell{Mean: c.Blocked, N: c.N}
}

// RatioAblation is analytic: it sweeps the t_hold/t_end ratio and reports
// the latency of OPT, binomial and sequential trees for k nodes. It shows
// binomial matching OPT exactly at ratio 1 (the U-mesh optimality
// condition) and sequential winning over binomial at small ratios — the
// motivating observations of the paper's introduction.
func RatioAblation(k int, tend model.Time, ratios []float64) *Table {
	t := &Table{
		Title:      fmt.Sprintf("Ablation: tree shapes vs t_hold/t_end ratio (k=%d, t_end=%d)", k, tend),
		XLabel:     "t_hold/t_end (x1000)",
		YLabel:     "analytic multicast latency (cycles)",
		Algorithms: []string{"OPT", "binomial", "sequential"},
		Notes:      []string{"analytic evaluation, no simulation"},
	}
	for _, r := range ratios {
		thold := model.Time(r * float64(tend))
		opt := core.NewOptTable(k, thold, tend).T(k)
		bino := core.Latency(core.BinomialTable{Max: k}, k, thold, tend)
		seq := core.Latency(core.SequentialTable{Max: k}, k, thold, tend)
		t.Rows = append(t.Rows, Row{X: r * 1000, Cells: []Cell{
			{Mean: float64(opt), N: 1}, {Mean: float64(bino), N: 1}, {Mean: float64(seq), N: 1},
		}})
	}
	return t
}

// AddrAblation measures the cost of carrying destination address lists in
// message payloads (the paper's "each message carries the addresses"
// remark, which the analytic model ignores): the same sweep run with 0
// and with addrBytes per carried address.
func AddrAblation(s *Suite, k, bytes, addrBytes int) (*Table, error) {
	base, charged := *s, *s
	base.AddrBytes, charged.AddrBytes = 0, addrBytes
	cols := []series{{&base, Opt("OPT (free addresses)")}, {&charged, Opt("OPT (charged addresses)")}}
	t := &Table{
		Title:      fmt.Sprintf("Ablation: address-list payload (%d bytes/address, %d-byte messages)", addrBytes, bytes),
		XLabel:     "number of nodes",
		YLabel:     "multicast latency (cycles)",
		Algorithms: seriesNames(cols),
	}
	ks := DefaultNodeCounts(s.Platform.Nodes)
	res, err := sweepGrid(t, cols, ks, func(x int) int { return x }, func(int) int { return bytes })
	if res == nil {
		return t, err
	}
	fill(t, ks, res.latencyCell)
	return t, nil
}

// HypercubeSizes is experiment H1: U-cube vs OPT-tree vs OPT-cube on a
// binary hypercube, exercising the paper's §6 claim that the tuning
// concept transfers to any network partitionable into contention-free
// clusters. The chain is the hypercube's dimension order (bit-reversed
// addresses); both ordered algorithms must report zero contention.
func HypercubeSizes(s *Suite, k int, sizes []int) (*Table, error) {
	algos := []Algorithm{Binomial("U-cube"), OptUnordered("OPT-tree"), Opt("OPT-cube")}
	return s.SweepSizes(fmt.Sprintf("H1: %d-node multicast trees on a %s", k, s.Platform.Name), k, sizes, algos)
}

// BroadcastCrossover is experiment B4: the paper's introduction pits
// portable tree multicast against the architecture-specific
// scatter/all-gather broadcast of Barnett et al. ("reported to perform
// nearly optimal"). This sweep broadcasts to every node of the platform
// and locates the message-size crossover where bandwidth-optimal
// scatter-collect overtakes even the optimal tree.
func BroadcastCrossover(s *Suite, sizes []int) (*Table, error) {
	p := s.Platform.Nodes
	out := &Table{
		Title:      fmt.Sprintf("B4: full broadcast, tree vs scatter-collect on a %s", s.Platform.Name),
		XLabel:     "message size (bytes)",
		YLabel:     "broadcast latency (cycles)",
		Algorithms: []string{"U-mesh tree", "OPT tree", "scatter-collect"},
	}
	addrs := make([]int, p)
	for i := range addrs {
		addrs[i] = i
	}
	ch := chain.New(addrs, s.Platform.Less)
	root, _ := ch.Index(0)
	// Calibration stays outside the cells: t_end is a deterministic probe,
	// cheap next to a full-machine broadcast, and every shard needs it to
	// key its cells identically.
	tends, err := s.calibrate(nil, "", sizes...)
	if err != nil {
		return nil, err
	}
	mcast := func(bytes int, tab core.SplitTable, algo string, thold, tend model.Time) runner.Cell {
		return runner.Cell{
			Key: runner.Key{
				Mode: "bcast", Platform: s.Platform.Name, Algo: algo, Soft: SoftwareKey(s.Software),
				K: p, Bytes: bytes, AddrBytes: s.AddrBytes, THold: thold, TEnd: tend,
			},
			Run: func() (runner.Result, error) {
				res, err := mcastsim.Run(s.Platform.NewNet(), tab, ch, root, bytes, s.runConfig())
				if err != nil {
					return runner.Result{}, err
				}
				return mcastResult(res), nil
			},
		}
	}
	res, err := grid{len(sizes), len(out.Algorithms), 1, func(r, c, _ int) runner.Cell {
		bytes := sizes[r]
		thold, tend := s.Software.Hold.At(bytes), tends[bytes]
		switch c {
		case 0:
			return mcast(bytes, core.BinomialTable{Max: p}, "binomial", thold, tend)
		case 1:
			return mcast(bytes, core.NewOptTable(p, thold, tend), "opt", thold, tend)
		}
		return runner.Cell{
			Key: runner.Key{
				Mode: "scatter", Platform: s.Platform.Name, Algo: "scatter-collect", Soft: SoftwareKey(s.Software),
				K: p, Bytes: bytes, AddrBytes: s.AddrBytes,
			},
			Run: func() (runner.Result, error) {
				sc, err := collective.ScatterAllgather(s.Platform.NewNet(), ch, bytes, s.runConfig())
				if err != nil {
					return runner.Result{}, err
				}
				return runner.Result{Metrics: map[string]float64{
					"latency": float64(sc.Latency),
					"blocked": float64(sc.BlockedCycles),
				}}, nil
			},
		}
	}}.run(s, out.Title, out)
	if res == nil {
		return out, err
	}
	fill(out, sizes, func(r, c int) Cell {
		lat, blocked := res.stats(r, c, "latency"), res.stats(r, c, "blocked")
		return Cell{Mean: lat.Mean(), Blocked: blocked.Mean(), N: 1}
	})
	out.Notes = append(out.Notes,
		"full-machine broadcast: placements are fixed (all nodes), so each row is one deterministic run",
		"scatter-collect's ring wrap send is not contention-free on a mesh; its blocked cycles are charged in the latency")
	return out, nil
}

// TorusSizes is experiment T1: U-torus vs OPT-tree vs OPT-torus on a
// wrap-around torus with dateline virtual channels. Unlike on the mesh,
// the dimension-ordered chain does NOT guarantee zero contention here —
// wrap paths break the direction lemma — so the tables record a small
// residual blocked count for the ordered algorithms alongside the large
// one of the random order.
func TorusSizes(s *Suite, k int, sizes []int) (*Table, error) {
	algos := []Algorithm{Binomial("U-torus"), OptUnordered("OPT-tree"), Opt("OPT-torus")}
	t, err := s.SweepSizes(fmt.Sprintf("T1: %d-node multicast trees on a %s", k, s.Platform.Name), k, sizes, algos)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "wrap links break the mesh direction lemma: ordered algorithms may retain residual contention")
	return t, nil
}

// ButterflyTemporal is experiment E1 (the paper's §6 future work): on a
// unidirectional butterfly no node ordering can make the recursion
// channel-disjoint, so the best one can do is temporal tuning. The sweep
// compares the unordered OPT-tree against the lexicographically ordered
// OPT tree and the binomial tree; the ordered variants reduce — but do
// not eliminate — blocked cycles.
func ButterflyTemporal(s *Suite, k int, sizes []int) (*Table, error) {
	algos := []Algorithm{
		OptUnordered("OPT-tree (random)"),
		Opt("OPT (lex-ordered)"),
		Binomial("binomial (lex-ordered)"),
	}
	t, err := s.SweepSizes(fmt.Sprintf("E1: temporal tuning on a %s (%d-node multicast)", s.Platform.Name, k), k, sizes, algos)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "butterfly paths are unique per (src,dst); contention can be reduced by ordering but not eliminated")
	return t, nil
}

// TemporalTuning is experiment E2: on the non-partitionable butterfly,
// compare the three levels of §6-style tuning for the OPT tree shape —
// random order, lexicographic order, and the search-based temporal tuner
// (package temporal) — by simulated latency and blocked cycles.
func TemporalTuning(s *Suite, k, bytes, iterations int) (*Table, error) {
	out := &Table{
		Title:  fmt.Sprintf("E2: temporal tuning of the OPT tree on a %s (k=%d, %dB)", s.Platform.Name, k, bytes),
		XLabel: "trial",
		YLabel: "blocked cycles (latency in mean column)",
		Algorithms: []string{
			"random blocked", "lex blocked", "tuned blocked",
			"random latency", "tuned latency",
		},
	}
	tend, err := s.MeasureTEnd(bytes)
	if err != nil {
		return nil, err
	}
	thold := s.Software.Hold.At(bytes)
	tab := core.NewOptTable(k, thold, tend)
	out.Notes = append(out.Notes, fmt.Sprintf("measured t_hold=%d t_end=%d; tuner: %d iterations, 2 restarts", thold, tend, iterations))

	res, err := grid{1, 1, s.trials(), func(_, _, trial int) runner.Cell {
		return runner.Cell{
			Key: runner.Key{
				Mode: "temporal", Platform: s.Platform.Name, Algo: "opt", Soft: SoftwareKey(s.Software),
				K: k, Bytes: bytes, Trial: trial, Seed: s.Seed, AddrBytes: s.AddrBytes,
				THold: thold, TEnd: tend,
				Extra: fmt.Sprintf("iters=%d,slack=50,restarts=2", iterations),
			},
			Run: func() (runner.Result, error) {
				addrs := s.placement(trial, k)
				runOne := func(ch chain.Chain, root int) (mcastsim.Result, error) {
					return mcastsim.Run(s.Platform.NewNet(), tab, ch, root, bytes, s.runConfig())
				}
				random, err := runOne(chain.Unordered(addrs), 0)
				if err != nil {
					return runner.Result{}, err
				}
				lexCh := chain.New(addrs, s.Platform.Less)
				lexRoot, _ := lexCh.Index(addrs[0])
				lex, err := runOne(lexCh, lexRoot)
				if err != nil {
					return runner.Result{}, err
				}
				tuned, err := temporal.Tune(temporal.Config{
					Topo:       s.Platform.NewNet().Topology(),
					Software:   s.Software,
					Slack:      50,
					Iterations: iterations,
					Restarts:   2,
					Seed:       s.Seed + uint64(trial),
				}, tab, addrs, bytes, thold, tend)
				if err != nil {
					return runner.Result{}, err
				}
				tunedRes, err := runOne(tuned.Chain, tuned.Root)
				if err != nil {
					return runner.Result{}, err
				}
				return runner.Result{Metrics: map[string]float64{
					"rblocked": float64(random.BlockedCycles),
					"lblocked": float64(lex.BlockedCycles),
					"tblocked": float64(tunedRes.BlockedCycles),
					"rlat":     float64(random.Latency),
					"tlat":     float64(tunedRes.Latency),
				}}, nil
			},
		}
	}}.run(s, out.Title, out)
	if res == nil {
		return out, err
	}
	metrics := []string{"rblocked", "lblocked", "tblocked", "rlat", "tlat"}
	fill(out, []int{0}, func(_, c int) Cell { return statCell(res.stats(0, 0, metrics[c])) })
	return out, nil
}

// ModelValidation is experiment M1: how well do two measured parameters
// predict a real (simulated) machine? For each multicast size, compare
// the analytic OPT latency t[k] — computed only from the calibrated
// (t_hold, t_end) — against the flit-level simulation of the
// contention-free OPT-mesh tree. The error quantifies what the
// parameterized model abstracts away (per-hop distance spread), and its
// smallness is the paper's entire premise.
func ModelValidation(s *Suite, ks []int, bytes int) (*Table, error) {
	out := &Table{
		Title:      fmt.Sprintf("M1: parameterized-model fidelity on a %s (%dB messages)", s.Platform.Name, bytes),
		XLabel:     "number of nodes",
		YLabel:     "multicast latency (cycles)",
		Algorithms: []string{"analytic t[k]", "simulated OPT", "error x1000"},
	}
	tend, err := s.MeasureTEnd(bytes)
	if err != nil {
		return nil, err
	}
	thold := s.Software.Hold.At(bytes)
	out.Notes = append(out.Notes, fmt.Sprintf("measured t_hold=%d t_end=%d; %d placements per point", thold, tend, s.trials()))

	// The simulated column is the ordered OPT run at each k — exactly the
	// healthy mcast cell, so M1 shares cache entries with the node-count
	// sweeps at equal parameters.
	var kept []int
	for _, k := range ks {
		if k <= s.Platform.Nodes {
			kept = append(kept, k)
		}
	}
	res, err := grid{len(kept), 1, s.trials(), func(r, _, trial int) runner.Cell {
		return s.mcastCell(Opt("OPT"), kept[r], bytes, trial, thold, tend)
	}}.run(s, out.Title, out)
	if res == nil {
		return out, err
	}
	for ki, k := range kept {
		analytic := float64(core.NewOptTable(k, thold, tend).T(k))
		for trial, r := range res.point(ki, 0) {
			if r.Metric("blocked") != 0 {
				return nil, fmt.Errorf("exp: model validation requires contention-free runs; k=%d trial %d blocked", k, trial)
			}
		}
		lat := res.stats(ki, 0, "latency")
		errPerMille := (lat.Mean() - analytic) / analytic * 1000
		out.Rows = append(out.Rows, Row{X: float64(k), Cells: []Cell{
			{Mean: analytic, N: 1},
			statCell(lat),
			{Mean: errPerMille, N: lat.N()},
		}})
	}
	return out, nil
}

// ConcurrentInterference is experiment C1: the paper's contention-free
// guarantee is per-multicast; this sweep runs g simultaneous OPT-mesh
// multicasts on disjoint node sets and reports how much they slow each
// other down through the shared fabric. Rows are group counts; columns
// are the mean solo latency, the mean concurrent latency, and the mean
// blocked cycles of the batch.
func ConcurrentInterference(s *Suite, groupCounts []int, k, bytes int) (*Table, error) {
	for _, g := range groupCounts {
		if g*k > s.Platform.Nodes {
			return nil, fmt.Errorf("exp: %d groups of %d nodes exceed the %d-node fabric", g, k, s.Platform.Nodes)
		}
	}
	out := &Table{
		Title:      fmt.Sprintf("C1: concurrent OPT multicasts on a %s (k=%d each, %dB)", s.Platform.Name, k, bytes),
		XLabel:     "simultaneous multicasts",
		YLabel:     "latency (cycles)",
		Algorithms: []string{"solo latency", "concurrent latency", "batch blocked cycles"},
	}
	tend, err := s.MeasureTEnd(bytes)
	if err != nil {
		return nil, err
	}
	thold := s.Software.Hold.At(bytes)
	tab := core.NewOptTable(k, thold, tend)
	out.Notes = append(out.Notes,
		fmt.Sprintf("measured t_hold=%d t_end=%d; %d trials on %s, seed %d", thold, tend, s.trials(), s.Platform.Name, s.Seed))

	res, err := grid{len(groupCounts), 1, s.trials(), func(row, _, trial int) runner.Cell {
		g := groupCounts[row]
		return runner.Cell{
			Key: runner.Key{
				Mode: "conc", Platform: s.Platform.Name, Algo: "opt", Soft: SoftwareKey(s.Software),
				K: k, Bytes: bytes, X: g, Trial: trial, Seed: s.Seed, AddrBytes: s.AddrBytes,
				THold: thold, TEnd: tend,
			},
			Run: func() (runner.Result, error) {
				r := sim.NewRNG(s.Seed + uint64(trial)*0x51ed + uint64(g))
				all := r.Sample(s.Platform.Nodes, g*k)
				groups := make([]mcastsim.Group, g)
				var soloSum float64
				for gi := range groups {
					addrs := all[gi*k : (gi+1)*k]
					ch := chain.New(addrs, s.Platform.Less)
					root, _ := ch.Index(addrs[0])
					groups[gi] = mcastsim.Group{Tab: tab, Chain: ch, Root: root, Bytes: bytes}
					res, err := mcastsim.Run(s.Platform.NewNet(), tab, ch, root, bytes, s.runConfig())
					if err != nil {
						return runner.Result{}, err
					}
					soloSum += float64(res.Latency)
				}
				batch, err := mcastsim.RunConcurrent(s.Platform.NewNet(), groups, s.runConfig())
				if err != nil {
					return runner.Result{}, err
				}
				var concSum float64
				for _, r := range batch {
					concSum += float64(r.Latency)
				}
				return runner.Result{Metrics: map[string]float64{
					"solo":    soloSum / float64(g),
					"conc":    concSum / float64(g),
					"blocked": float64(batch[0].BlockedCycles),
				}}, nil
			},
		}
	}}.run(s, out.Title, out)
	if res == nil {
		return out, err
	}
	for r, g := range groupCounts {
		blocked := res.stats(r, 0, "blocked")
		out.Rows = append(out.Rows, Row{X: float64(g), Cells: []Cell{
			statCell(res.stats(r, 0, "solo")),
			statCell(res.stats(r, 0, "conc")),
			{Mean: blocked.Mean(), N: blocked.N()},
		}})
	}
	return out, nil
}

// PolicyAblation compares BMIN ascent policies by the contention they
// leave in the unordered OPT-tree — the "extra paths reduce contention"
// mechanism of Section 5 made explicit. exec, when non-nil, shares the
// caller's experiment engine across the per-policy suites.
func PolicyAblation(nodes int, cfg wormhole.Config, soft model.Software, trials int, seed uint64, k, bytes int, exec *runner.Exec) (*Table, error) {
	policies := []bmin.AscentPolicy{bmin.AscentStraight, bmin.AscentDest, bmin.AscentAdaptive, bmin.AscentAdaptiveDest}
	out := &Table{
		Title:      fmt.Sprintf("Ablation: BMIN ascent policy vs OPT-tree contention (k=%d, %dB)", k, bytes),
		XLabel:     "policy index",
		YLabel:     "mean blocked cycles per multicast",
		Algorithms: []string{"OPT-tree blocked", "OPT-min blocked", "OPT-tree latency", "OPT-min latency"},
	}
	suites := make([]*Suite, len(policies))
	tends := make([]model.Time, len(policies))
	for i, pol := range policies {
		suites[i] = &Suite{Platform: BMINPlatform(nodes, pol, cfg), Software: soft, Trials: trials, Seed: seed, Exec: exec}
		te, err := suites[i].MeasureTEnd(bytes)
		if err != nil {
			return nil, err
		}
		tends[i] = te
		out.Notes = append(out.Notes, fmt.Sprintf("policy %d = %s", i, pol))
	}
	algos := []Algorithm{OptUnordered("OPT-tree"), Opt("OPT-min")}
	res, err := grid{len(policies), len(algos), suites[0].trials(), func(r, c, tr int) runner.Cell {
		return suites[r].mcastCell(algos[c], k, bytes, tr, soft.Hold.At(bytes), tends[r])
	}}.run(suites[0], out.Title, out)
	if res == nil {
		return out, err
	}
	for i := range policies {
		c0, c1 := res.latencyCell(i, 0), res.latencyCell(i, 1)
		out.Rows = append(out.Rows, Row{X: float64(i), Cells: []Cell{
			blockedCell(c0), blockedCell(c1),
			{Mean: c0.Mean, N: c0.N}, {Mean: c1.Mean, N: c1.N},
		}})
	}
	return out, nil
}
