// Package exp is the experiment harness: it regenerates every figure of
// the paper's evaluation (Section 5) plus the ablations called out in
// DESIGN.md, on the flit-level simulator.
//
// Methodology, mirroring the paper:
//
//   - Each data point is the mean multicast latency over Trials (default
//     16) independent experiments with identical parameters but different
//     randomly drawn processor locations.
//   - (t_hold, t_end) for the OPT-tree dynamic program are measured from
//     the simulated machine itself via calibration unicasts, exactly as
//     the paper measures them at user level on real machines.
//   - All randomness is seeded; tables are byte-for-byte reproducible.
package exp

import (
	"fmt"

	"repro/internal/bfly"
	"repro/internal/bmin"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/mcastsim"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/torus"
	"repro/internal/wormhole"
)

// Platform is one simulated machine: a fabric plus the architecture's
// chain ordering.
type Platform struct {
	// Name labels the platform in tables ("16x16 mesh", "128-node BMIN").
	Name string
	// Nodes is the machine size.
	Nodes int
	// NewNet builds a fresh idle fabric.
	NewNet func() *wormhole.Network
	// Less is the architecture's chain order (<_d for meshes,
	// lexicographic for BMINs).
	Less func(a, b int) bool
}

// newNet builds a sweep fabric with worm recycling enabled: the harness
// attaches no observers and reads results only through mcastsim.Result,
// so no *Worm outlives its arrival callback and pooling is safe.
func newNet(topo wormhole.Topology, cfg wormhole.Config) *wormhole.Network {
	n := wormhole.New(topo, cfg)
	n.SetRecycling(true)
	return n
}

// MeshPlatform builds a W×H wormhole mesh with XY routing, the paper's
// first evaluation fabric (16×16 in Section 5).
func MeshPlatform(w, h int, cfg wormhole.Config) Platform {
	m := mesh.New2D(w, h)
	return Platform{
		Name:   fmt.Sprintf("%dx%d mesh", w, h),
		Nodes:  m.NumNodes(),
		NewNet: func() *wormhole.Network { return newNet(m, cfg) },
		Less:   m.DimOrderLess,
	}
}

// BMINPlatform builds an N-node bidirectional MIN of 2×2 switches with
// turnaround routing, the paper's second fabric (128 nodes in Section 5).
func BMINPlatform(nodes int, policy bmin.AscentPolicy, cfg wormhole.Config) Platform {
	b := bmin.New(nodes, policy)
	return Platform{
		Name:   fmt.Sprintf("%d-node BMIN (%s ascent)", nodes, policy),
		Nodes:  nodes,
		NewNet: func() *wormhole.Network { return newNet(b, cfg) },
		Less:   b.LexLess,
	}
}

// TorusPlatform builds a W×H wrap-around torus with dateline virtual
// channels — an extension fabric probing whether the mesh ordering
// discipline survives wrap links (experiment T1).
func TorusPlatform(w, h int, cfg wormhole.Config) Platform {
	tr := torus.New2D(w, h)
	return Platform{
		Name:   fmt.Sprintf("%dx%d torus", w, h),
		Nodes:  tr.NumNodes(),
		NewNet: func() *wormhole.Network { return newNet(tr, cfg) },
		Less:   tr.DimOrderLess,
	}
}

// HypercubePlatform builds a 2^dim-node binary hypercube with e-cube
// routing — the U-cube setting, exercising the paper's claim that the
// tuning concept applies to any partitionable network (experiment H1).
func HypercubePlatform(dim int, cfg wormhole.Config) Platform {
	h := mesh.NewHypercube(dim)
	return Platform{
		Name:   fmt.Sprintf("%d-node hypercube", h.NumNodes()),
		Nodes:  h.NumNodes(),
		NewNet: func() *wormhole.Network { return newNet(h, cfg) },
		Less:   h.DimOrderLess,
	}
}

// ButterflyPlatform builds an N-node unidirectional butterfly MIN, the
// non-partitionable fabric of the paper's concluding remarks (experiment
// E1).
func ButterflyPlatform(nodes int, cfg wormhole.Config) Platform {
	b := bfly.New(nodes)
	return Platform{
		Name:   fmt.Sprintf("%d-node butterfly", nodes),
		Nodes:  nodes,
		NewNet: func() *wormhole.Network { return newNet(b, cfg) },
		Less:   b.LexLess,
	}
}

// Algorithm couples a node-ordering policy with a tree-shape family. The
// same two constructors instantiate all five algorithms of the paper:
// U-mesh/U-min are Binomial over the architecture chain, OPT-mesh/OPT-min
// are Opt over the architecture chain, and OPT-tree is Opt over the
// unordered (as-sampled) chain.
type Algorithm struct {
	// Name labels the series.
	Name string
	// ID is the tree-shape family ("binomial", "opt", "seq") — the
	// cache identity of the algorithm. Display names vary per figure
	// ("U-mesh", "U-torus", "OPT (free addresses)"), so cell keys use
	// ID+Ordered instead and identical computations share cache entries
	// across figures.
	ID string
	// Ordered selects the architecture chain; false keeps the random
	// sample order (the architecture-independent OPT-tree).
	Ordered bool
	// Table builds the split table for k nodes under the measured
	// parameters.
	Table func(k int, thold, tend model.Time) core.SplitTable
}

// keyID is the algorithm's cache identity for cell keys.
func (a Algorithm) keyID() string {
	if a.Ordered {
		return a.ID
	}
	return a.ID + "/unordered"
}

// Binomial returns the recursive-doubling algorithm under the given name
// (U-mesh on meshes, U-min on BMINs).
func Binomial(name string) Algorithm {
	return Algorithm{
		Name:    name,
		ID:      "binomial",
		Ordered: true,
		Table:   func(k int, _, _ model.Time) core.SplitTable { return core.BinomialTable{Max: k} },
	}
}

// Opt returns the parameterized-tree algorithm over the architecture
// chain (OPT-mesh on meshes, OPT-min on BMINs).
func Opt(name string) Algorithm {
	return Algorithm{
		Name:    name,
		ID:      "opt",
		Ordered: true,
		Table:   func(k int, thold, tend model.Time) core.SplitTable { return core.NewOptTable(k, thold, tend) },
	}
}

// OptUnordered returns the architecture-independent OPT-tree: the same
// optimal shape planned over the unsorted placement order, exposed to
// contention.
func OptUnordered(name string) Algorithm {
	a := Opt(name)
	a.Ordered = false
	return a
}

// Sequential returns the separate-addressing baseline tree.
func Sequential(name string) Algorithm {
	return Algorithm{
		Name:    name,
		ID:      "seq",
		Ordered: true,
		Table:   func(k int, _, _ model.Time) core.SplitTable { return core.SequentialTable{Max: k} },
	}
}

// Suite holds everything common to one experiment campaign.
type Suite struct {
	Platform  Platform
	Software  model.Software
	AddrBytes int
	// Trials is the number of random placements per data point (the
	// paper uses 16).
	Trials int
	// Seed makes the campaign reproducible.
	Seed uint64
	// Exec, when set, runs the suite's cell manifests through a shared
	// experiment engine (workers, sharding, on-disk cache, progress,
	// summary). Nil runs everything in-process on GOMAXPROCS workers —
	// the plain serial-cold behavior.
	Exec *runner.Exec
}

// SoftwareKey canonically encodes a software cost model for cache keys
// (runner.Key.Soft), of figure cells and netsim runs alike.
func SoftwareKey(soft model.Software) string {
	enc := func(l model.Linear) string { return fmt.Sprintf("%g+%g/B", l.Fixed, l.PerByte) }
	return fmt.Sprintf("send=%s,recv=%s,hold=%s", enc(soft.Send), enc(soft.Recv), enc(soft.Hold))
}

// mcastCell builds the engine cell for one healthy-fabric multicast:
// algorithm a over the trial placement of k nodes, bytes-byte messages,
// under measured (thold, tend). The key pins every input, so any figure
// requesting the same computation shares the same cache entry.
func (s *Suite) mcastCell(a Algorithm, k, bytes, trial int, thold, tend model.Time) runner.Cell {
	return runner.Cell{
		Key: runner.Key{
			Mode: "mcast", Platform: s.Platform.Name, Algo: a.keyID(), Soft: SoftwareKey(s.Software),
			K: k, Bytes: bytes, Trial: trial, Seed: s.Seed, AddrBytes: s.AddrBytes,
			THold: thold, TEnd: tend,
		},
		Run: func() (runner.Result, error) {
			addrs := s.placement(trial, k)
			res, err := s.runOnce(a, addrs, bytes, thold, tend)
			if err != nil {
				return runner.Result{}, err
			}
			return mcastResult(res), nil
		},
	}
}

// mcastResult flattens a simulator result into the engine's cell
// payload. Every metric is an exact integer cycle count widened to
// float64, so cache round-trips reproduce it bit for bit.
func mcastResult(res mcastsim.Result) runner.Result {
	return runner.Result{Metrics: map[string]float64{
		"latency": float64(res.Latency),
		"blocked": float64(res.BlockedCycles),
		"wait":    float64(res.InjectWaitCycles),
	}}
}

// DefaultSuite returns the paper's methodology on the given platform:
// 16 trials, default software costs, seeded.
func DefaultSuite(p Platform) *Suite {
	return &Suite{
		Platform: p,
		Software: model.DefaultSoftware(),
		Trials:   16,
		Seed:     1997, // the paper's year; any fixed value works
	}
}

// MeasureTEnd measures t_end(bytes) on the platform: the mean of
// calibration unicasts over a fixed set of seeded random pairs, rounded
// to a cycle. This is the paper's user-level parameter measurement.
func (s *Suite) MeasureTEnd(bytes int) (model.Time, error) {
	const pairs = 8
	r := sim.NewRNG(s.Seed ^ 0xca11b8a7e)
	var sum int64
	for i := 0; i < pairs; i++ {
		a := r.Intn(s.Platform.Nodes)
		b := r.Intn(s.Platform.Nodes)
		for b == a {
			b = r.Intn(s.Platform.Nodes)
		}
		lat, err := mcastsim.Unicast(s.Platform.NewNet(), a, b, bytes, s.runConfig())
		if err != nil {
			return 0, fmt.Errorf("exp: calibration unicast: %w", err)
		}
		sum += lat
	}
	return (sum + pairs/2) / pairs, nil
}

// FitParams fits the full parameter set (including the linear t_net
// component) from calibration unicasts at several sizes; used by
// cmd/calibrate and the tuning example.
func (s *Suite) FitParams(sizes []int) (model.Params, error) {
	var pts []model.Point
	for _, m := range sizes {
		tend, err := s.MeasureTEnd(m)
		if err != nil {
			return model.Params{}, err
		}
		net := tend - s.Software.Send.At(m) - s.Software.Recv.At(m)
		pts = append(pts, model.Point{Bytes: m, T: net})
	}
	netFit, err := model.Fit(pts)
	if err != nil {
		return model.Params{}, err
	}
	return model.Params{Software: s.Software, Net: netFit}, nil
}

func (s *Suite) runConfig() mcastsim.Config {
	return mcastsim.Config{Software: s.Software, AddrBytes: s.AddrBytes}
}

// placement returns the k node addresses of one trial; element 0 is the
// multicast source. Placements depend only on (Seed, trial, k), so every
// algorithm and message size sees the same locations — the paper's
// "same input parameters, different processor locations" protocol with
// common random numbers across series.
func (s *Suite) placement(trial, k int) []int {
	r := sim.NewRNG(s.Seed + uint64(trial)*0x9e37 + uint64(k)*0x79b9)
	return r.Sample(s.Platform.Nodes, k)
}

// runOnce executes one multicast on a fresh healthy fabric.
func (s *Suite) runOnce(a Algorithm, addrs []int, bytes int, thold, tend model.Time) (mcastsim.Result, error) {
	return s.runOnceOn(s.Platform.NewNet(), a, addrs, bytes, thold, tend)
}

// runOnceOn executes one multicast on a caller-built fabric — the fault
// sweeps build the net themselves so they can install a fault plan first.
func (s *Suite) runOnceOn(net *wormhole.Network, a Algorithm, addrs []int, bytes int, thold, tend model.Time) (mcastsim.Result, error) {
	var ch chain.Chain
	if a.Ordered {
		ch = chain.New(addrs, s.Platform.Less)
	} else {
		ch = chain.Unordered(addrs)
	}
	root, ok := ch.Index(addrs[0])
	if !ok {
		return mcastsim.Result{}, fmt.Errorf("exp: source %d not in chain", addrs[0])
	}
	tab := a.Table(len(ch), thold, tend)
	return mcastsim.Run(net, tab, ch, root, bytes, s.runConfig())
}

// Cell is one (x, algorithm) aggregate of a sweep.
type Cell struct {
	// Mean and CI95 summarize multicast latency in cycles.
	Mean, CI95 float64
	// Blocked is the mean header-blocked cycles per run (contention).
	Blocked float64
	// InjectWait is the mean one-port wait per run.
	InjectWait float64
	// N is the number of trials aggregated.
	N int
}

// Row is one x-value of a sweep.
type Row struct {
	X     float64
	Cells []Cell
}

// Table is a complete figure: one column per algorithm, one row per
// x-value.
type Table struct {
	Title      string
	XLabel     string
	YLabel     string
	Algorithms []string
	Rows       []Row
	// Notes records methodology details (measured parameters, trials).
	Notes []string
	// Incomplete marks a sharded partial run: some cells were neither
	// computed by this shard nor present in the cache, so Rows is empty
	// and the table must not be rendered or compared. Once every shard
	// has landed its cells in the shared cache, re-running the figure
	// merges them into the full table.
	Incomplete bool
}

// sweep runs the cross product of xs and algorithms; kOf/bytesOf map an x
// value to the multicast size and message size of that row.
func (s *Suite) sweep(title, xlabel string, xs []int, algos []Algorithm, kOf, bytesOf func(x int) int) (*Table, error) {
	t := &Table{
		Title:      title,
		XLabel:     xlabel,
		YLabel:     "multicast latency (cycles)",
		Algorithms: make([]string, len(algos)),
	}
	cols := make([]series, len(algos))
	for i, a := range algos {
		t.Algorithms[i] = a.Name
		cols[i] = series{s, a}
	}
	res, err := sweepGrid(t, cols, xs, kOf, bytesOf)
	if res == nil {
		return t, err
	}
	fill(t, xs, res.latencyCell)
	return t, nil
}

// sweepGrid runs the healthy-multicast grid behind the sweep family: row
// r multicasts kOf(xs[r]) nodes with bytesOf(xs[r])-byte messages and
// column c runs cols[c]. Each suite writes its calibration notes, then
// its placement line, to t.
func sweepGrid(t *Table, cols []series, xs []int, kOf, bytesOf func(x int) int) (*gridResults, error) {
	sizes := make([]int, len(xs))
	for i, x := range xs {
		sizes[i] = bytesOf(x)
	}
	trials := cols[0].suite.trials()
	tends, err := calibrateSeries(cols, func(s *Suite) (map[int]model.Time, error) {
		return s.calibrateSweep(&t.Notes, trials, sizes...)
	})
	if err != nil {
		return nil, err
	}
	return grid{len(xs), len(cols), trials, func(r, c, tr int) runner.Cell {
		s, b := cols[c].suite, sizes[r]
		return s.mcastCell(cols[c].algo, kOf(xs[r]), b, tr, s.Software.Hold.At(b), tends[c][b])
	}}.run(cols[0].suite, t.Title, t)
}

// SweepSizes is the Figure 2 family: fixed multicast size k, message size
// on the x axis.
func (s *Suite) SweepSizes(title string, k int, sizes []int, algos []Algorithm) (*Table, error) {
	return s.sweep(title, "message size (bytes)", sizes, algos,
		func(int) int { return k }, func(x int) int { return x })
}

// SweepNodes is the Figure 3 family: fixed message size, multicast size
// on the x axis.
func (s *Suite) SweepNodes(title string, bytes int, ks []int, algos []Algorithm) (*Table, error) {
	return s.sweep(title, "number of nodes", ks, algos,
		func(x int) int { return x }, func(int) int { return bytes })
}
