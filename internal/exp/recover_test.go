package exp

import (
	"testing"

	"repro/internal/runner"
)

// TestRecoverSweepDeterministic: seeded fault plans and seeded backoff
// jitter — two runs must render all three tables byte-identically, and
// worker count must not matter (aggregation is a serial post-pass).
func TestRecoverSweepDeterministic(t *testing.T) {
	run := func(workers int) string {
		ms, bs := smallMeshSuite(), smallBMINSuite()
		ex := &runner.Exec{Workers: workers}
		ms.Exec, bs.Exec = ex, ex
		f2, err := RecoverSweep(ms, bs, 8, 1024, []int{0, 4}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return f2.Latency.Format() + f2.Delivered.Format() + f2.Overhead.Format()
	}
	a, b := run(0), run(1)
	if a != b {
		t.Fatalf("recover sweep not reproducible:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestRecoverSweepDeliveredMatchesOracle: the tentpole claim in table
// form — on every row the delivered fraction must equal the
// reachability-oracle ceiling for that fabric, because recovery
// completes whenever a route exists and abandons only what the oracle
// already calls cut off.
func TestRecoverSweepDeliveredMatchesOracle(t *testing.T) {
	f2, err := RecoverSweep(smallMeshSuite(), smallBMINSuite(), 8, 1024, []int{0, 4, 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	tb := f2.Delivered
	if len(tb.Algorithms) != 6 {
		t.Fatalf("delivered table algorithms %v, want 4 + 2 oracle columns", tb.Algorithms)
	}
	for _, row := range tb.Rows {
		for ci := 0; ci < 4; ci++ {
			oi := 4 // mesh oracle column
			if ci >= 2 {
				oi = 5 // BMIN oracle column
			}
			got, want := row.Cells[ci].Mean, row.Cells[oi].Mean
			if got != want {
				t.Errorf("at %g%%: %s delivered %.2f%% != reachable %.2f%%",
					row.X, tb.Algorithms[ci], got, want)
			}
		}
		if row.X == 0 {
			for ci, c := range row.Cells {
				if c.Mean != 100 {
					t.Errorf("healthy row: %s delivered %.2f%%, want 100", tb.Algorithms[ci], c.Mean)
				}
			}
		}
	}
	// A lossy row must show a real recovery premium in F2c.
	last := f2.Overhead.Rows[len(f2.Overhead.Rows)-1]
	var premium float64
	for _, c := range last.Cells {
		premium += c.Mean
	}
	if premium <= 0 {
		t.Errorf("10%% dead links produced zero recovery overhead across all algorithms: %+v", last)
	}
}

// TestRecoverSweepValidatesPercentages rejects x values outside [0,100].
func TestRecoverSweepValidatesPercentages(t *testing.T) {
	for _, pcts := range [][]int{{-1}, {101}} {
		if _, err := RecoverSweep(smallMeshSuite(), smallBMINSuite(), 8, 1024, pcts, 1); err == nil {
			t.Errorf("pcts %v accepted", pcts)
		}
	}
}
