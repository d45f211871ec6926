package exp

// Experiment F2: reliable delivery under faults. F1 measures what the
// tuned trees deliver with no help — past a few percent dead links
// almost every run loses some destination. F2 reruns the same seeded
// fault plans through reliable delivery (mcastsim.RunReliable: per-send
// timeout + retransmit, OPT-tree repair over the surviving chain,
// binomial fallback) and reports the cost of completing anyway: the
// completion latency, the fraction of destinations delivered next to
// the graph-reachability ceiling, and the retransmission overhead.

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/fault"
	"repro/internal/mcastsim"
	"repro/internal/model"
	recov "repro/internal/recover"
	"repro/internal/runner"
	"repro/internal/wormhole"
)

// F2Tables bundles the three views of experiment F2 over one sweep.
type F2Tables struct {
	// Latency is completion latency (last successful delivery) vs % dead
	// links. Unlike F1, every run contributes: there are no failed runs
	// to exclude, only abandoned (provably cut off) destinations, which
	// do not extend the latency.
	Latency *Table
	// Delivered is the delivered fraction of destinations (percent) next
	// to the reachability-oracle ceiling per fabric — the headline claim
	// is that the two sets of curves coincide.
	Delivered *Table
	// Overhead is the recovery premium per run: retransmits + repair
	// sends + orphan sends, the messages a fault-free execution would
	// not have sent.
	Overhead *Table
}

// recoverCell builds the engine cell for one reliable-delivery run on a
// degraded fabric. Every recover cell also evaluates the reachability
// oracle on its fault plan and placement — it is a pure function of the
// same key inputs and cheap next to the flit simulation — so the cell
// payload is uniform no matter which figure requested it; the merge
// reads the oracle only from each suite's first column.
func (s *Suite) recoverCell(a Algorithm, k, bytes, trial, pct int, planSeed, recSeed uint64, thold, tend model.Time) runner.Cell {
	return runner.Cell{
		Key: runner.Key{
			Mode: "recover", Platform: s.Platform.Name, Algo: a.keyID(), Soft: SoftwareKey(s.Software),
			K: k, Bytes: bytes, Trial: trial, Seed: s.Seed, AddrBytes: s.AddrBytes,
			THold: thold, TEnd: tend, FaultSeed: planSeed, DeadPct: pct, RecSeed: recSeed,
		},
		Run: func() (runner.Result, error) {
			net := s.Platform.NewNet()
			var fp *fault.Plan
			if pct > 0 {
				fp = fault.MustPlan(net.Topology(), fault.Spec{
					DeadFrac: float64(pct) / 100,
					Seed:     planSeed,
				})
				net.SetFaults(fp)
			}
			addrs := s.placement(trial, k)
			ch := chain.New(addrs, s.Platform.Less)
			root, ok := ch.Index(addrs[0])
			if !ok {
				return runner.Result{}, fmt.Errorf("exp: source %d not in chain", addrs[0])
			}
			tab := a.Table(len(ch), thold, tend)
			res, err := mcastsim.RunReliable(net, tab, ch, root, bytes, mcastsim.ReliableConfig{
				Sim:  s.runConfig(),
				TEnd: tend,
				Seed: recSeed,
			})
			if err != nil {
				return runner.Result{}, err
			}
			fallback := 0.0
			if res.FallbackAt >= 0 {
				fallback = 1
			}
			// Oracle: the 0% row has no plan — pass a nil interface, not a
			// typed-nil *fault.Plan.
			var fm wormhole.FaultModel
			if fp != nil {
				fm = fp
			}
			n := 0
			for _, ok := range recov.Reachable(net.Topology(), fm, ch, root) {
				if ok {
					n++
				}
			}
			oh := res.Overhead
			return runner.Result{Metrics: map[string]float64{
				"latency":   float64(res.Latency),
				"delivered": float64(res.Delivered),
				"abandoned": float64(res.Abandoned),
				"overhead":  float64(oh.Retransmits + oh.RepairSends + oh.OrphanSends),
				"fallback":  fallback,
				"reach":     100 * float64(n-1) / float64(len(ch)-1),
			}}, nil
		},
	}
}

// RecoverSweep runs experiment F2: the F1 fault sweep with the recovery
// layer turned on. Fault plans use the same per-(row, trial) seed
// formula as FaultSweep, so the two experiments face identical dead-link
// sets and their tables are directly comparable. pcts are the x values
// (percent of fabric-internal links made dead, each in [0,100]).
func RecoverSweep(meshSuite, bminSuite *Suite, k, bytes int, pcts []int, faultSeed uint64) (*F2Tables, error) {
	if err := checkPcts(pcts); err != nil {
		return nil, err
	}
	cols := []series{
		{meshSuite, Binomial("U-mesh")},
		{meshSuite, Opt("OPT-mesh")},
		{bminSuite, Binomial("U-min")},
		{bminSuite, Opt("OPT-min")},
	}
	trials := meshSuite.trials()

	newTable := func(title, ylabel string, algos []string) *Table {
		return &Table{
			Title:      title,
			XLabel:     "failed links (%)",
			YLabel:     ylabel,
			Algorithms: algos,
		}
	}
	algoNames := seriesNames(cols)
	f2 := &F2Tables{
		Latency: newTable(
			fmt.Sprintf("F2a: completion latency under recovery vs %% failed links (k=%d, %d-byte messages)", k, bytes),
			"completion latency (cycles, mean over all runs)", algoNames),
		Delivered: newTable(
			fmt.Sprintf("F2b: delivered fraction under recovery vs %% failed links (k=%d, %d-byte messages)", k, bytes),
			"destinations delivered (%, vs reachability-oracle ceiling)",
			append(append([]string{}, algoNames...), "reachable (mesh)", "reachable (BMIN)")),
		Overhead: newTable(
			fmt.Sprintf("F2c: recovery overhead vs %% failed links (k=%d, %d-byte messages)", k, bytes),
			"extra messages per run (retransmits + repair sends + orphan sends, mean)", algoNames),
	}

	tends, err := calibrateHealthy(cols, &f2.Latency.Notes, bytes)
	if err != nil {
		return nil, err
	}
	f2.Latency.Notes = append(f2.Latency.Notes, fmt.Sprintf("%d random placements per point, placement seed %d, fault seed %d (same plans as F1)",
		trials, meshSuite.Seed, faultSeed))
	f2.Delivered.Notes = append(f2.Delivered.Notes,
		"reachable columns are the graph-reachability oracle (recover.Reachable) on the same fault plans;",
		"delivered ~= reachable means recovery completes whenever a route exists")

	res, err := grid{len(pcts), len(cols), trials, func(r, c, tr int) runner.Cell {
		s := cols[c].suite
		planSeed := faultPlanSeed(faultSeed, r, tr)
		return s.recoverCell(cols[c].algo, k, bytes, tr, pcts[r],
			planSeed, planSeed+uint64(c)*0xc2b2ae35,
			s.Software.Hold.At(bytes), tends[c][bytes])
	}}.run(meshSuite, f2.Latency.Title, f2.Latency, f2.Delivered, f2.Overhead)
	if res == nil {
		return f2, err
	}

	deliveredFrac := func(r *runner.Result) float64 {
		delivered, abandoned := r.Metric("delivered"), r.Metric("abandoned")
		return 100 * delivered / (delivered + abandoned)
	}
	fill(f2.Latency, pcts, func(r, c int) Cell { return statCell(res.stats(r, c, "latency")) })
	heads := suiteHeads(cols)
	fill(f2.Delivered, pcts, func(r, c int) Cell {
		if c >= len(cols) {
			// The oracle depends only on the fault plan and placement, so
			// each suite's first column carries it.
			return statCell(res.stats(r, heads[c-len(cols)], "reach"))
		}
		return statCell(fold(res.point(r, c), deliveredFrac))
	})
	fill(f2.Overhead, pcts, func(r, c int) Cell {
		if fb := res.sum(r, c, "fallback"); fb > 0 {
			f2.Overhead.Notes = append(f2.Overhead.Notes, fmt.Sprintf("%s at %d%%: %d/%d runs fell back to binomial over survivors",
				cols[c].algo.Name, pcts[r], int(fb), trials))
		}
		return statCell(res.stats(r, c, "overhead"))
	})
	return f2, nil
}
