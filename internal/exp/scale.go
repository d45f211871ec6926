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
	var platforms []Platform
	for _, side := range DefaultScaleMeshSides() {
		platforms = append(platforms, MeshPlatform(side, side, cfg))
	}
	for _, nodes := range DefaultScaleBMINNodes() {
		platforms = append(platforms, BMINPlatform(nodes, bmin.AscentStraight, cfg))
	}
	for _, p := range platforms {
		s := &Suite{Platform: p, Software: soft, Trials: trials, Seed: seed, Exec: exec}
		t, err := s.SweepSizes("", k, []int{bytes}, []Algorithm{Binomial("binomial"), Opt("OPT")})
		if err != nil {
			return nil, err
		}
		out.Notes = append(out.Notes, fmt.Sprintf("%d nodes = %s", p.Nodes, p.Name))
		out.Notes = append(out.Notes, t.Notes...)
		if t.Incomplete {
			// Keep iterating so every fabric's cells are enumerated under
			// sharding; only the merge is deferred.
			out.Incomplete = true
			continue
		}
		if out.Incomplete {
			continue
		}
		out.Rows = append(out.Rows, Row{X: float64(p.Nodes), Cells: t.Rows[0].Cells})
	}
	if out.Incomplete {
		out.Rows = nil
	}
	return out, nil
}
