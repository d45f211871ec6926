package exp

import (
	"strings"
	"testing"

	"repro/internal/bmin"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/wormhole"
)

func smallMeshSuite() *Suite {
	s := DefaultSuite(MeshPlatform(8, 8, wormhole.DefaultConfig()))
	s.Trials = 4
	return s
}

func smallBMINSuite() *Suite {
	s := DefaultSuite(BMINPlatform(64, bmin.AscentStraight, wormhole.DefaultConfig()))
	s.Trials = 4
	return s
}

// TestFigure1ExactNumbers: the worked example must match the paper
// exactly: OPT 130, U-mesh 165.
func TestFigure1ExactNumbers(t *testing.T) {
	f, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if f.OptLatency != 130 {
		t.Errorf("OPT latency = %d, paper says 130", f.OptLatency)
	}
	if f.UMeshLat != 165 {
		t.Errorf("U-mesh latency = %d, paper says 165", f.UMeshLat)
	}
	if f.OptTree.Size() != 8 || f.UMeshTree.Size() != 8 {
		t.Error("trees do not cover 8 nodes")
	}
	if err := f.OptTree.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSweepSizesShapeAndOrdering: table structure is sound; the tuned
// OPT-mesh never loses to U-mesh; both are contention-free.
func TestSweepSizesShapeAndOrdering(t *testing.T) {
	s := smallMeshSuite()
	tab, err := s.SweepSizes("test", 12, []int{0, 4096}, MeshAlgorithms())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 || len(tab.Algorithms) != 3 {
		t.Fatalf("table shape: %d rows, %d algos", len(tab.Rows), len(tab.Algorithms))
	}
	for _, r := range tab.Rows {
		for ai, c := range r.Cells {
			if c.N != s.Trials {
				t.Fatalf("cell N = %d, want %d", c.N, s.Trials)
			}
			if c.Mean <= 0 {
				t.Fatalf("non-positive latency in column %s", tab.Algorithms[ai])
			}
		}
		umesh, opttree, optmesh := r.Cells[0], r.Cells[1], r.Cells[2]
		if optmesh.Mean > umesh.Mean {
			t.Fatalf("x=%v: OPT-mesh %v worse than U-mesh %v", r.X, optmesh.Mean, umesh.Mean)
		}
		if optmesh.Blocked != 0 || umesh.Blocked != 0 {
			t.Fatalf("x=%v: tuned algorithms contended (U-mesh %v, OPT-mesh %v)", r.X, umesh.Blocked, optmesh.Blocked)
		}
		if opttree.Mean < optmesh.Mean {
			t.Fatalf("x=%v: unordered OPT-tree %v beat contention-free OPT-mesh %v", r.X, opttree.Mean, optmesh.Mean)
		}
	}
}

// TestSweepNodesMonotone: more nodes never makes the multicast faster.
func TestSweepNodesMonotone(t *testing.T) {
	s := smallMeshSuite()
	tab, err := s.SweepNodes("test", 1024, []int{4, 16, 64}, MeshAlgorithms())
	if err != nil {
		t.Fatal(err)
	}
	for ai := range tab.Algorithms {
		for i := 1; i < len(tab.Rows); i++ {
			if tab.Rows[i].Cells[ai].Mean < tab.Rows[i-1].Cells[ai].Mean {
				t.Fatalf("%s: latency decreased from k=%v to k=%v", tab.Algorithms[ai], tab.Rows[i-1].X, tab.Rows[i].X)
			}
		}
	}
}

// TestBMINSweepContentionFree: U-min and OPT-min are contention-free on
// the straight-ascent BMIN.
func TestBMINSweepContentionFree(t *testing.T) {
	s := smallBMINSuite()
	tab, err := s.SweepSizes("test", 12, []int{2048}, BMINAlgorithms())
	if err != nil {
		t.Fatal(err)
	}
	r := tab.Rows[0]
	if r.Cells[0].Blocked != 0 || r.Cells[2].Blocked != 0 {
		t.Fatalf("U-min blocked %v, OPT-min blocked %v", r.Cells[0].Blocked, r.Cells[2].Blocked)
	}
	if r.Cells[2].Mean > r.Cells[0].Mean {
		t.Fatalf("OPT-min %v worse than U-min %v", r.Cells[2].Mean, r.Cells[0].Mean)
	}
}

// TestMeasureTEndSaneAndDeterministic.
func TestMeasureTEnd(t *testing.T) {
	s := smallMeshSuite()
	a, err := s.MeasureTEnd(4096)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.MeasureTEnd(4096)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("calibration not deterministic: %d vs %d", a, b)
	}
	// Lower bound: software costs plus flit count; upper: plus the whole
	// fabric diameter several times over.
	soft := s.Software.Send.At(4096) + s.Software.Recv.At(4096)
	flits := int64(wormhole.DefaultConfig().Flits(4096))
	if a < soft+flits || a > soft+flits+1000 {
		t.Fatalf("t_end(4096) = %d out of sane range [%d, %d]", a, soft+flits, soft+flits+1000)
	}
}

// TestFitParams recovers a linear t_net with small residual.
func TestFitParams(t *testing.T) {
	s := smallMeshSuite()
	p, err := s.FitParams([]int{0, 1024, 4096, 16384})
	if err != nil {
		t.Fatal(err)
	}
	if p.Net.PerByte <= 0 || p.Net.Fixed <= 0 {
		t.Fatalf("fitted t_net = %v", p.Net)
	}
	// The fabric moves one 8-byte flit per cycle: per-byte cost ~1/8.
	if p.Net.PerByte < 0.1 || p.Net.PerByte > 0.15 {
		t.Fatalf("t_net per-byte %v, expected ~0.125", p.Net.PerByte)
	}
}

// TestRatioAblationProperties: binomial == OPT at ratio 1; sequential
// beats binomial at tiny ratios; OPT lower-bounds everything.
func TestRatioAblationProperties(t *testing.T) {
	tab := RatioAblation(16, 1000, []float64{0.01, 0.25, 0.5, 1.0})
	for _, r := range tab.Rows {
		opt, bino, seq := r.Cells[0].Mean, r.Cells[1].Mean, r.Cells[2].Mean
		if opt > bino || opt > seq {
			t.Fatalf("ratio %v: OPT %v not a lower bound (bin %v, seq %v)", r.X, opt, bino, seq)
		}
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last.Cells[0].Mean != last.Cells[1].Mean {
		t.Fatalf("at ratio 1, OPT %v != binomial %v", last.Cells[0].Mean, last.Cells[1].Mean)
	}
	first := tab.Rows[0]
	if first.Cells[2].Mean >= first.Cells[1].Mean {
		t.Fatalf("at ratio 0.01, sequential %v should beat binomial %v", first.Cells[2].Mean, first.Cells[1].Mean)
	}
}

// TestContentionComparisonStructure: tuned columns are zero; unordered
// columns show some contention overall.
func TestContentionComparisonStructure(t *testing.T) {
	ms, bs := smallMeshSuite(), smallBMINSuite()
	ms.Trials, bs.Trials = 6, 6
	tab, err := ContentionComparison(ms, bs, 24, []int{4096})
	if err != nil {
		t.Fatal(err)
	}
	r := tab.Rows[0]
	if r.Cells[1].Mean != 0 || r.Cells[3].Mean != 0 {
		t.Fatalf("tuned algorithms contended: %+v", r)
	}
	if r.Cells[0].Mean+r.Cells[2].Mean == 0 {
		t.Fatal("unordered OPT-tree showed no contention anywhere; comparison is vacuous")
	}
}

// TestAddrAblationCharges: charged addresses never make the multicast
// faster.
func TestAddrAblationCharges(t *testing.T) {
	s := smallMeshSuite()
	s.Trials = 3
	tab, err := AddrAblation(s, 16, 1024, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r.Cells[1].Mean < r.Cells[0].Mean {
			t.Fatalf("k=%v: charged %v < free %v", r.X, r.Cells[1].Mean, r.Cells[0].Mean)
		}
	}
}

// TestPolicyAblationRuns and keeps tuned OPT-min contention-free under
// the adaptive policies too.
func TestPolicyAblationRuns(t *testing.T) {
	tab, err := PolicyAblation(64, wormhole.DefaultConfig(), model.DefaultSoftware(), 3, 11, 16, 2048, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i, r := range tab.Rows {
		if i == 1 {
			continue // dest ascent is the known-contending policy
		}
		if r.Cells[1].Mean != 0 {
			t.Fatalf("policy row %d: OPT-min blocked %v", i, r.Cells[1].Mean)
		}
	}
}

// TestTableRendering: Format and CSV are structurally sound.
func TestTableRendering(t *testing.T) {
	tab := RatioAblation(8, 100, []float64{0.5, 1.0})
	text := tab.Format()
	if !strings.Contains(text, "OPT") || !strings.Contains(text, "binomial") {
		t.Fatalf("Format missing columns:\n%s", text)
	}
	if !strings.Contains(text, tab.Title) {
		t.Fatal("Format missing title")
	}
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3", len(lines))
	}
	if got := strings.Count(lines[1], ","); got != 9 {
		t.Fatalf("CSV data row has %d commas, want 9 (x + 3 algos x 3 fields)", got)
	}
}

// TestTableColumns: Column and BlockedColumn extract series.
func TestTableColumns(t *testing.T) {
	tab := RatioAblation(8, 100, []float64{0.5, 1.0})
	xs, means, ok := tab.Column("binomial")
	if !ok || len(xs) != 2 || len(means) != 2 {
		t.Fatal("Column failed")
	}
	if _, _, ok := tab.Column("nope"); ok {
		t.Fatal("Column found a missing algorithm")
	}
	if _, _, ok := tab.BlockedColumn("OPT"); !ok {
		t.Fatal("BlockedColumn failed")
	}
	if _, _, ok := tab.BlockedColumn("nope"); ok {
		t.Fatal("BlockedColumn found a missing algorithm")
	}
}

// TestSweepDeterministic: identical suites render identical tables.
func TestSweepDeterministic(t *testing.T) {
	run := func() string {
		s := smallMeshSuite()
		tab, err := s.SweepSizes("d", 10, []int{512}, MeshAlgorithms())
		if err != nil {
			t.Fatal(err)
		}
		return tab.Format()
	}
	if run() != run() {
		t.Fatal("sweeps diverged across runs")
	}
}

// TestSweepWorkerInvariance: the sim.ForEachProgress fan-out must not affect
// results — a sweep rendered with one worker is byte-identical to the
// same sweep with several, both on the default stall-aware kernel (every
// sweep fabric also exercises worm recycling via newNet) and on the
// reference kernel, so worker count can never leak into tables.
func TestSweepWorkerInvariance(t *testing.T) {
	run := func(workers int, k wormhole.Kernel) string {
		p := MeshPlatform(8, 8, wormhole.DefaultConfig())
		base := p.NewNet
		p.NewNet = func() *wormhole.Network {
			n := base()
			n.SetKernel(k)
			return n
		}
		s := DefaultSuite(p)
		s.Trials = 4
		s.Exec = &runner.Exec{Workers: workers}
		tab, err := s.SweepSizes("d", 12, []int{256, 4096}, MeshAlgorithms())
		if err != nil {
			t.Fatal(err)
		}
		return tab.Format()
	}
	fast1 := run(1, wormhole.KernelFast)
	if fast4 := run(4, wormhole.KernelFast); fast4 != fast1 {
		t.Fatalf("fast-kernel sweep depends on worker count:\n1 worker:\n%s\n4 workers:\n%s", fast1, fast4)
	}
	if ref4 := run(4, wormhole.KernelReference); ref4 != fast1 {
		t.Fatalf("reference-kernel sweep diverges from fast kernel:\nfast:\n%s\nreference:\n%s", fast1, ref4)
	}
}

// TestDefaultAxes: the canonical x axes match the paper.
func TestDefaultAxes(t *testing.T) {
	sizes := DefaultSizes()
	if len(sizes) != 9 || sizes[0] != 0 || sizes[8] != 65536 {
		t.Fatalf("sizes = %v", sizes)
	}
	ks := DefaultNodeCounts(256)
	if ks[0] != 4 || ks[len(ks)-1] != 256 {
		t.Fatalf("node counts = %v", ks)
	}
	if got := DefaultNodeCounts(128); got[len(got)-1] != 128 {
		t.Fatalf("clamped node counts = %v", got)
	}
}

// TestPlacementProperties: placements are distinct addresses in range and
// differ across trials.
func TestPlacementProperties(t *testing.T) {
	s := smallMeshSuite()
	a := s.placement(0, 16)
	b := s.placement(1, 16)
	seen := map[int]bool{}
	for _, v := range a {
		if v < 0 || v >= s.Platform.Nodes || seen[v] {
			t.Fatalf("bad placement %v", a)
		}
		seen[v] = true
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("trials 0 and 1 drew identical placements")
	}
}
