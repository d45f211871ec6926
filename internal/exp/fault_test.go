package exp

import (
	"testing"

	"repro/internal/sim"
)

// TestSweepAggregationMatchesRescan pins the figure grid's per-point
// aggregation against the definitionally-correct per-cell rescan: re-run
// every (x, algorithm, trial) job independently, accumulate each cell's
// Stats in trial order, and require the sweep's cells to match
// bit-for-bit. Any aggregation must preserve the exact Add order so
// golden tables stay byte-identical.
func TestSweepAggregationMatchesRescan(t *testing.T) {
	s := smallMeshSuite()
	sizes := []int{256, 1024}
	algos := []Algorithm{Binomial("U-mesh"), Opt("OPT-mesh")}
	const k = 8

	table, err := s.SweepSizes("t", k, sizes, algos)
	if err != nil {
		t.Fatal(err)
	}

	trials := s.Trials
	for xi, x := range sizes {
		tend, err := s.MeasureTEnd(x)
		if err != nil {
			t.Fatal(err)
		}
		for ai, a := range algos {
			var want Cell
			var lat, blocked, wait sim.Stats
			for tr := 0; tr < trials; tr++ {
				res, err := s.runOnce(a, s.placement(tr, k), x, s.Software.Hold.At(x), tend)
				if err != nil {
					t.Fatal(err)
				}
				lat.Add(float64(res.Latency))
				blocked.Add(float64(res.BlockedCycles))
				wait.Add(float64(res.InjectWaitCycles))
			}
			want = Cell{
				Mean: lat.Mean(), CI95: lat.CI95(),
				Blocked: blocked.Mean(), InjectWait: wait.Mean(),
				N: lat.N(),
			}
			if got := table.Rows[xi].Cells[ai]; got != want {
				t.Errorf("%s at %d: sweep cell %+v != rescan %+v", a.Name, x, got, want)
			}
		}
	}
}

// TestFaultSweepDeterministic: the whole point of seeded fault plans —
// two runs with the same seeds must render byte-identical tables.
func TestFaultSweepDeterministic(t *testing.T) {
	run := func() string {
		tb, err := FaultSweep(smallMeshSuite(), smallBMINSuite(), 8, 1024, []int{0, 2}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return tb.Format()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fault sweep not reproducible:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestFaultSweepHealthyRow: the 0%% row is a healthy fabric — every run
// must survive, and the cells must carry real latencies.
func TestFaultSweepHealthyRow(t *testing.T) {
	ms, bs := smallMeshSuite(), smallBMINSuite()
	tb, err := FaultSweep(ms, bs, 8, 1024, []int{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 || len(tb.Rows[0].Cells) != 4 {
		t.Fatalf("table shape %dx%d, want 1x4", len(tb.Rows), len(tb.Rows[0].Cells))
	}
	for ci, c := range tb.Rows[0].Cells {
		if c.N != ms.Trials {
			t.Errorf("%s: healthy row lost runs: N=%d want %d", tb.Algorithms[ci], c.N, ms.Trials)
		}
		if c.Mean <= 0 {
			t.Errorf("%s: healthy latency %g", tb.Algorithms[ci], c.Mean)
		}
	}
}

// TestFaultSweepValidatesPercentages rejects x values outside [0,100].
func TestFaultSweepValidatesPercentages(t *testing.T) {
	for _, pcts := range [][]int{{-1}, {101}, {0, 50, 200}} {
		if _, err := FaultSweep(smallMeshSuite(), smallBMINSuite(), 8, 1024, pcts, 1); err == nil {
			t.Errorf("pcts %v accepted", pcts)
		}
	}
}
