package exp

// Experiment F4: simulator scalability. The paper's figures live on
// 16×16 mesh / 128-node BMIN fabrics; the roadmap's north star is
// sweeping the same algorithms on fabrics three orders of magnitude
// larger. ScaleLatency is a normal deterministic figure — multicast
// latency of the binomial and OPT trees vs fabric size,
// byte-reproducible and part of the golden tables. It records how
// tuned-tree latency grows as the same 32-node multicast spreads over an
// ever larger machine (longer unicast paths raise t_end, and the OPT
// shape re-tunes around it). Host time on large fabrics is not part of
// the figure; the repository benchmark's mcast-1m workload (bench/)
// measures it on the 1024×1024 mesh.

import (
	"fmt"

	"repro/internal/bmin"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/wormhole"
)

// DefaultScaleMeshSides is the mesh half of the F4 latency ladder.
func DefaultScaleMeshSides() []int { return []int{16, 32, 64, 128} }

// DefaultScaleBMINNodes is the BMIN half of the F4 latency ladder.
func DefaultScaleBMINNodes() []int { return []int{128, 1024, 8192} }

// ScaleLatency runs experiment F4: the same 32-destination 4-KB
// multicast (binomial vs OPT over the architecture chain) on each fabric
// of the ladder. Rows are fabric sizes in nodes (meshes first, then
// BMINs — the notes name each row's platform); every row re-measures
// (t_hold, t_end) on its own fabric, exactly as the per-platform figures
// do.
func ScaleLatency(cfg wormhole.Config, soft model.Software, trials int, seed uint64, exec *runner.Exec) (*Table, error) {
	const k, bytes = 32, 4096
	out := &Table{
		Title:      fmt.Sprintf("F4: %d-node %d-byte multicast vs fabric size", k, bytes),
		XLabel:     "fabric size (nodes)",
		YLabel:     "multicast latency (cycles)",
		Algorithms: []string{"binomial", "OPT"},
	}
	var suites []*Suite
	add := func(p Platform) {
		suites = append(suites, &Suite{Platform: p, Software: soft, Trials: trials, Seed: seed, Exec: exec})
	}
	for _, side := range DefaultScaleMeshSides() {
		add(MeshPlatform(side, side, cfg))
	}
	for _, nodes := range DefaultScaleBMINNodes() {
		add(BMINPlatform(nodes, bmin.AscentStraight, cfg))
	}
	tends := make([]map[int]model.Time, len(suites))
	for i, s := range suites {
		out.Notes = append(out.Notes, fmt.Sprintf("%d nodes = %s", s.Platform.Nodes, s.Platform.Name))
		var err error
		if tends[i], err = s.calibrateSweep(&out.Notes, s.trials(), bytes); err != nil {
			return nil, err
		}
	}
	algos := []Algorithm{Binomial("binomial"), Opt("OPT")}
	res, err := grid{len(suites), len(algos), suites[0].trials(), func(r, c, tr int) runner.Cell {
		return suites[r].mcastCell(algos[c], k, bytes, tr, soft.Hold.At(bytes), tends[r][bytes])
	}}.run(suites[0], out.Title, out)
	if res == nil {
		return out, err
	}
	for r, s := range suites {
		out.Rows = append(out.Rows, Row{X: float64(s.Platform.Nodes), Cells: []Cell{res.latencyCell(r, 0), res.latencyCell(r, 1)}})
	}
	return out, nil
}
