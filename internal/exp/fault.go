package exp

// Experiment F1: graceful degradation. The paper's contention-freedom
// theorems assume a healthy fabric; F1 measures what the tuned trees
// actually deliver as links fail — mean multicast latency (over the
// surviving runs) versus the percentage of dead fabric links, for the
// four named algorithms on their home fabrics. Fault plans are seeded,
// so the whole table is byte-for-byte reproducible.

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/runner"
)

// faultPlanSeed derives the per-(row, trial) fault-plan seed. The plan
// depends on the row and trial but not the column, so the two mesh
// algorithms face identical dead-link sets (and likewise the two BMIN
// algorithms) — common random numbers across the series, as in the
// healthy sweeps. F2 uses the same formula, so its plans match F1's row
// for row.
func faultPlanSeed(faultSeed uint64, pi, trial int) uint64 {
	return faultSeed + uint64(pi)*0x9e3779b9 + uint64(trial)*0x85ebca6b
}

// faultCell builds the engine cell for one multicast on a degraded
// fabric: pct percent dead links under the derived plan seed. A failed
// run (unreachable destination, watchdog abort) is data, not an error —
// it caches as Failed and the merge excludes it. pct 0 falls back to
// the plain healthy cell so F1's baseline row shares cache entries with
// the healthy sweeps at the same parameters.
func (s *Suite) faultCell(a Algorithm, k, bytes, trial, pct int, planSeed uint64, thold, tend model.Time) runner.Cell {
	if pct == 0 {
		return s.mcastCell(a, k, bytes, trial, thold, tend)
	}
	return runner.Cell{
		Key: runner.Key{
			Mode: "fault", Platform: s.Platform.Name, Algo: a.keyID(), Soft: SoftwareKey(s.Software),
			K: k, Bytes: bytes, Trial: trial, Seed: s.Seed, AddrBytes: s.AddrBytes,
			THold: thold, TEnd: tend, FaultSeed: planSeed, DeadPct: pct,
		},
		Run: func() (runner.Result, error) {
			net := s.Platform.NewNet()
			net.SetFaults(fault.MustPlan(net.Topology(), fault.Spec{
				DeadFrac: float64(pct) / 100,
				Seed:     planSeed,
			}))
			addrs := s.placement(trial, k)
			res, err := s.runOnceOn(net, a, addrs, bytes, thold, tend)
			if err != nil {
				return runner.Result{Failed: true}, nil
			}
			return mcastResult(res), nil
		},
	}
}

// FaultSweep runs experiment F1: latency vs % failed links for U-mesh
// and OPT-mesh on the mesh suite and U-min and OPT-min on the BMIN
// suite. k is the multicast size and bytes the message size; pcts are
// the x values (percent of fabric-internal links made dead, each in
// [0,100]); faultSeed seeds the per-(row, trial) fault plans.
//
// Calibration (t_hold, t_end) is measured on the healthy fabric — the
// tuned tree is planned for the machine as specified, then executed on
// the degraded one, which is exactly the robustness question. Runs that
// fail (unreachable destination, watchdog abort) are excluded from the
// cell aggregate; Cell.N counts the survivors and the table notes name
// every cell that lost runs.
func FaultSweep(meshSuite, bminSuite *Suite, k, bytes int, pcts []int, faultSeed uint64) (*Table, error) {
	if err := checkPcts(pcts); err != nil {
		return nil, err
	}
	cols := []series{
		{meshSuite, Binomial("U-mesh")},
		{meshSuite, Opt("OPT-mesh")},
		{bminSuite, Binomial("U-min")},
		{bminSuite, Opt("OPT-min")},
	}
	t := &Table{
		Title:      fmt.Sprintf("F1: multicast latency vs %% failed links (k=%d, %d-byte messages)", k, bytes),
		XLabel:     "failed links (%)",
		YLabel:     "multicast latency (cycles, mean over surviving runs)",
		Algorithms: seriesNames(cols),
	}
	trials := meshSuite.trials()
	tends, err := calibrateHealthy(cols, &t.Notes, bytes)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d random placements per point, placement seed %d, fault seed %d",
		trials, meshSuite.Seed, faultSeed))

	res, err := grid{len(pcts), len(cols), trials, func(r, c, tr int) runner.Cell {
		s := cols[c].suite
		return s.faultCell(cols[c].algo, k, bytes, tr, pcts[r],
			faultPlanSeed(faultSeed, r, tr), s.Software.Hold.At(bytes), tends[c][bytes])
	}}.run(meshSuite, t.Title, t)
	if res == nil {
		return t, err
	}
	fill(t, pcts, func(r, c int) Cell {
		cell := res.latencyCell(r, c)
		if cell.N < trials {
			t.Notes = append(t.Notes, fmt.Sprintf("%s at %d%%: %d/%d runs delivered (rest unreachable or watchdog-aborted)",
				cols[c].algo.Name, pcts[r], cell.N, trials))
		}
		return cell
	})
	return t, nil
}

// checkPcts rejects a dead-link percentage outside [0,100].
func checkPcts(pcts []int) error {
	for _, p := range pcts {
		if p < 0 || p > 100 {
			return fmt.Errorf("exp: fault percentage %d outside [0,100]", p)
		}
	}
	return nil
}

// calibrateHealthy measures t_end at bytes once per suite of cols on its
// healthy fabric: the trees are planned for the machine as specified,
// then run on the degraded or churned one.
func calibrateHealthy(cols []series, notes *[]string, bytes int) ([]map[int]model.Time, error) {
	return calibrateSeries(cols, func(s *Suite) (map[int]model.Time, error) {
		return s.calibrate(notes, "healthy calibration on "+s.Platform.Name+": ", bytes)
	})
}
