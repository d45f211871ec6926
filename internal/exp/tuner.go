package exp

// Experiment F6: the crossover surface as a service. The paper's
// message is that no single multicast algorithm wins everywhere — the
// best choice flips with (architecture, group size, message size,
// t_hold/t_end) and, per F1/F2, with fault state. F6 closes the loop:
// build a tuner.Surface per platform from measured training cells,
// compile it into the best-algorithm lookup, then score the selector
// on held-out evaluation trials against every static choice. The
// selector's regret (its eval latency minus the best static
// algorithm's) and its margin against the *worst* static choice
// quantify what crossover-aware selection buys.
//
// Train and eval reuse the standard cell builders (mcastCell /
// faultCell), so F6 shares cache entries with the other figures where
// parameters coincide, shards deterministically over the engine, and
// merges bit-identically from a warm cache.

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/tuner"
)

// TunerGrid pins the F6 crossover-surface axes: every combination of
// group size, message size and dead-link percentage is one grid point.
type TunerGrid struct {
	Ks, Bytes, FaultPcts []int
}

// DefaultTunerGrid spans the crossover-rich region: small and
// fabric-spanning groups, short and long messages, healthy through
// mildly degraded fabric (past a few percent dead links almost no
// closed-system run survives on spanning groups; see F1).
func DefaultTunerGrid() TunerGrid {
	return TunerGrid{Ks: []int{8, 32}, Bytes: []int{1024, 16384}, FaultPcts: []int{0, 1, 2}}
}

func (g TunerGrid) points() int { return len(g.Ks) * len(g.Bytes) * len(g.FaultPcts) }

// at expands a flat grid index into its (ki, bi, pi) coordinates,
// matching tuner.Surface's cell layout.
func (g TunerGrid) at(gi int) (ki, bi, pi int) {
	pi = gi % len(g.FaultPcts)
	bi = gi / len(g.FaultPcts) % len(g.Bytes)
	ki = gi / (len(g.FaultPcts) * len(g.Bytes))
	return
}

// F6Tables bundles the tuner experiment: the selected-algorithm map,
// the eval latencies of the selector against the static envelope, the
// regret table, and the compiled surfaces themselves (mesh first),
// ready for tuner.EncodeSet.
type F6Tables struct {
	Selection, Latency, Regret *Table
	Surfaces                   []*tuner.Surface
}

// TunerAlgos converts an exp algorithm set into tuner bindings (the
// surface algorithm vocabulary, in column order).
func TunerAlgos(algos []Algorithm) []tuner.Algo {
	out := make([]tuner.Algo, len(algos))
	for i, a := range algos {
		out[i] = tuner.Algo{Name: a.Name, Ordered: a.Ordered, Table: a.Table}
	}
	return out
}

// TunerSweep runs experiment F6 on the two paper platforms with their
// standard three-algorithm candidate sets (U-mesh/OPT-tree/OPT-mesh,
// U-min/OPT-tree/OPT-min). Each platform trains a surface on trials
// [0, Trials) and evaluates on trials [Trials, 2*Trials) — held-out
// placements and fault plans, same seeds discipline as every figure.
// faultSeed seeds the per-(pct, trial) fault plans via the F1 formula,
// so degraded cells share plans (and cache entries) with F1/F2 where
// the parameters line up.
func TunerSweep(meshSuite, bminSuite *Suite, axes TunerGrid, faultSeed uint64) (*F6Tables, error) {
	if err := checkPcts(axes.FaultPcts); err != nil {
		return nil, err
	}
	pts := axes.points()
	if pts == 0 {
		return nil, fmt.Errorf("exp: empty tuner grid")
	}
	suites := []*Suite{meshSuite, bminSuite}
	algosOf := [][]Algorithm{MeshAlgorithms(), BMINAlgorithms()}
	trials := meshSuite.trials()

	sel := &Table{
		Title:  fmt.Sprintf("F6a: crossover-surface selection map (%d-point grid, %d train + %d eval trials)", pts, trials, trials),
		XLabel: "grid point",
		YLabel: "algorithm index (see notes)",
	}
	lat := &Table{
		Title:  "F6b: held-out eval latency, surface selector vs static envelope",
		XLabel: "grid point",
		YLabel: "multicast latency (cycles, mean over surviving eval runs)",
	}
	reg := &Table{
		Title:  "F6c: selector regret (vs best static) and margin (vs worst static)",
		XLabel: "grid point",
		YLabel: "latency difference (cycles; regret >= 0, margin <= 0)",
	}
	f6 := &F6Tables{Selection: sel, Latency: lat, Regret: reg}

	// Healthy-fabric calibration, once per (suite, message size).
	tends := make([]map[int]model.Time, len(suites))
	for si, s := range suites {
		var err error
		if tends[si], err = s.calibrate(&sel.Notes, "healthy calibration on "+s.Platform.Name+": ", axes.Bytes...); err != nil {
			return nil, err
		}
	}

	// One grid over both platforms and both phases: row (si, phase, gi)
	// is grid point gi on suite si, where phase 0 trains on trials
	// [0, trials) and phase 1 evaluates on [trials, 2*trials).
	row := func(si, phase, gi int) int { return (si*2+phase)*pts + gi }
	na := len(algosOf[0])
	res, err := grid{len(suites) * 2 * pts, na, trials, func(r, ai, tr int) runner.Cell {
		si, phase, gi := r/(2*pts), r/pts%2, r%pts
		ki, bi, pi := axes.at(gi)
		s, b, trial := suites[si], axes.Bytes[bi], phase*trials+tr
		return s.faultCell(algosOf[si][ai], axes.Ks[ki], b, trial, axes.FaultPcts[pi],
			faultPlanSeed(faultSeed, pi, trial), s.Software.Hold.At(b), tends[si][b])
	}}.run(meshSuite, "F6 tuner", sel, lat, reg)
	if res == nil {
		return f6, err
	}

	// Train surfaces, compile, and score the selector on eval.
	type score struct {
		selected            int
		evalBest, evalWorst int
		selLat, best, worst sim.Stats
		excluded            bool
	}
	scores := make([][]score, len(suites))
	eval := make([]sim.Stats, na)
	for si, s := range suites {
		names := make([]string, na)
		for ai, a := range algosOf[si] {
			names[ai] = a.Name
		}
		surf := tuner.New(s.Platform.Name, names, axes.Ks, axes.Bytes, axes.FaultPcts)
		for gi := 0; gi < pts; gi++ {
			ki, bi, pi := axes.at(gi)
			for ai := 0; ai < na; ai++ {
				if st := res.stats(row(si, 0, gi), ai, "latency"); st.N() > 0 {
					surf.Set(ki, bi, pi, ai, st.Mean())
				}
			}
		}
		if err := surf.Compile(); err != nil {
			return nil, err
		}
		f6.Surfaces = append(f6.Surfaces, surf)
		sel.Notes = append(sel.Notes, fmt.Sprintf("%s surface hash %s", s.Platform.Name, surf.Hash()))

		scores[si] = make([]score, pts)
		for gi := 0; gi < pts; gi++ {
			ki, bi, pi := axes.at(gi)
			sc := &scores[si][gi]
			sc.selected = surf.Select(axes.Ks[ki], axes.Bytes[bi], axes.FaultPcts[pi])
			sc.evalBest, sc.evalWorst = -1, -1
			for ai := range eval {
				eval[ai] = res.stats(row(si, 1, gi), ai, "latency")
				if eval[ai].N() == 0 {
					continue
				}
				if sc.evalBest < 0 || eval[ai].Mean() < eval[sc.evalBest].Mean() {
					sc.evalBest = ai
				}
				if sc.evalWorst < 0 || eval[ai].Mean() > eval[sc.evalWorst].Mean() {
					sc.evalWorst = ai
				}
			}
			sc.selLat = eval[sc.selected]
			if sc.evalBest < 0 || sc.selLat.N() == 0 {
				sc.excluded = true
				sel.Notes = append(sel.Notes, fmt.Sprintf("point %d on %s excluded: no surviving eval runs", gi, s.Platform.Name))
				continue
			}
			sc.best, sc.worst = eval[sc.evalBest], eval[sc.evalWorst]
		}
	}

	// Assemble the three tables, one row per grid point.
	short := []string{"mesh", "BMIN"}
	for si := range suites {
		sel.Algorithms = append(sel.Algorithms, "selected ("+short[si]+")", "eval best ("+short[si]+")")
		lat.Algorithms = append(lat.Algorithms, "selector ("+short[si]+")", "best static ("+short[si]+")", "worst static ("+short[si]+")")
		reg.Algorithms = append(reg.Algorithms, "regret ("+short[si]+")", "margin ("+short[si]+")")
	}
	match := make([]int, len(suites))
	scored := make([]int, len(suites))
	for gi := 0; gi < pts; gi++ {
		selRow := Row{X: float64(gi)}
		latRow := Row{X: float64(gi)}
		regRow := Row{X: float64(gi)}
		for si := range suites {
			sc := &scores[si][gi]
			if sc.excluded {
				selRow.Cells = append(selRow.Cells, Cell{Mean: float64(sc.selected)}, Cell{Mean: -1})
				latRow.Cells = append(latRow.Cells, Cell{}, Cell{}, Cell{})
				regRow.Cells = append(regRow.Cells, Cell{}, Cell{})
				continue
			}
			scored[si]++
			// "Matches best static" tolerates exact ties: the selector
			// matched if its eval mean equals the best algorithm's.
			if sc.selLat.Mean() == sc.best.Mean() {
				match[si]++
			}
			selRow.Cells = append(selRow.Cells,
				Cell{Mean: float64(sc.selected), N: sc.selLat.N()},
				Cell{Mean: float64(sc.evalBest), N: sc.best.N()})
			latRow.Cells = append(latRow.Cells,
				Cell{Mean: sc.selLat.Mean(), CI95: sc.selLat.CI95(), N: sc.selLat.N()},
				Cell{Mean: sc.best.Mean(), CI95: sc.best.CI95(), N: sc.best.N()},
				Cell{Mean: sc.worst.Mean(), CI95: sc.worst.CI95(), N: sc.worst.N()})
			regRow.Cells = append(regRow.Cells,
				Cell{Mean: sc.selLat.Mean() - sc.best.Mean(), N: sc.selLat.N()},
				Cell{Mean: sc.selLat.Mean() - sc.worst.Mean(), N: sc.selLat.N()})
		}
		sel.Rows = append(sel.Rows, selRow)
		lat.Rows = append(lat.Rows, latRow)
		reg.Rows = append(reg.Rows, regRow)
	}

	// Legend and methodology notes.
	for gi := 0; gi < pts; gi++ {
		ki, bi, pi := axes.at(gi)
		sel.Notes = append(sel.Notes, fmt.Sprintf("point %d: k=%d, %d-byte messages, %d%% dead links",
			gi, axes.Ks[ki], axes.Bytes[bi], axes.FaultPcts[pi]))
	}
	for si := range suites {
		names := make([]string, na)
		for ai, a := range algosOf[si] {
			names[ai] = fmt.Sprintf("%d=%s", ai, a.Name)
		}
		sel.Notes = append(sel.Notes, fmt.Sprintf("%s algorithm indices: %s", short[si], strings.Join(names, ", ")))
		reg.Notes = append(reg.Notes, fmt.Sprintf("selector matched best static on %d/%d scored %s points",
			match[si], scored[si], short[si]))
	}
	sel.Notes = append(sel.Notes, fmt.Sprintf("%d random placements per (point, algorithm, phase) on seed %d, fault seed %d; eval uses held-out trials [%d,%d)",
		trials, meshSuite.Seed, faultSeed, trials, 2*trials))
	reg.Notes = append(reg.Notes, "regret = selector eval latency - best static (0 when the surface picked the eval winner); margin = selector - worst static (never > 0 unless the surface mis-ranked the envelope)")
	return f6, nil
}
