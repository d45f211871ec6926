package exp

import (
	"testing"

	"repro/internal/runner"
	"repro/internal/wormhole"
)

// churnTestRates are hot enough that churn overlaps the delivery wave
// (the repair policies only diverge while subtrees are in flight).
func churnTestRates() []int { return []int{1600, 3200, 6400} }

// churnSweepT renders the F5 reference sweep, optionally through a
// shared engine.
func churnSweepT(t *testing.T, ex *runner.Exec) *F5Tables {
	t.Helper()
	ms, bs := smallMeshSuite(), smallBMINSuite()
	ms.Trials, bs.Trials = 3, 3
	ms.Exec, bs.Exec = ex, ex
	f5, err := ChurnSweep(ms, bs, 12, 512, churnTestRates(), 11)
	if err != nil {
		t.Fatal(err)
	}
	return f5
}

func f5Format(f5 *F5Tables) string {
	return f5.Latency.Format() + f5.Delivered.Format() + f5.Repair.Format()
}

// TestChurnSweepDeterministic: seeded schedules and seeded backoff — two
// runs must render all three tables byte-identically regardless of
// worker count.
func TestChurnSweepDeterministic(t *testing.T) {
	run := func(workers int) string {
		ms, bs := smallMeshSuite(), smallBMINSuite()
		ms.Trials, bs.Trials = 3, 3
		ex := &runner.Exec{Workers: workers}
		ms.Exec, bs.Exec = ex, ex
		f5, err := ChurnSweep(ms, bs, 12, 512, churnTestRates(), 11)
		if err != nil {
			t.Fatal(err)
		}
		return f5Format(f5)
	}
	if a, b := run(0), run(1); a != b {
		t.Fatalf("churn sweep not reproducible:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestChurnSweepDeliveredMatchesOracle: the quiesce contract in table
// form — under pure node churn every policy's delivered fraction equals
// the membership-reachability oracle ceiling on every row — plus the
// tentpole acceptance relation: incremental repair never delivers less
// than full re-planning and issues strictly fewer repair sends.
func TestChurnSweepDeliveredMatchesOracle(t *testing.T) {
	f5 := churnSweepT(t, nil)
	tb := f5.Delivered
	if len(tb.Algorithms) != 8 {
		t.Fatalf("delivered table algorithms %v, want 6 + 2 oracle columns", tb.Algorithms)
	}
	for _, row := range tb.Rows {
		for ci := 0; ci < 6; ci++ {
			oi := 6 // mesh oracle column
			if ci >= 3 {
				oi = 7 // BMIN oracle column
			}
			got, want := row.Cells[ci].Mean, row.Cells[oi].Mean
			if got != want {
				t.Errorf("at %g events/Mcycle: %s delivered %.2f%% != reachable %.2f%%",
					row.X, tb.Algorithms[ci], got, want)
			}
		}
	}
	// Columns: full/incr/binom (mesh), full/incr/binom (BMIN). The
	// acceptance bar: per suite, delivered(incr) >= delivered(full) on
	// every row, and strictly fewer repair sends in total.
	for _, pair := range [][2]int{{0, 1}, {3, 4}} {
		full, incr := pair[0], pair[1]
		var fullSends, incrSends float64
		for ri, row := range f5.Repair.Rows {
			fullSends += row.Cells[full].Mean
			incrSends += row.Cells[incr].Mean
			d := f5.Delivered.Rows[ri]
			if d.Cells[incr].Mean < d.Cells[full].Mean {
				t.Errorf("at %g events/Mcycle: %s delivered %.2f%% < %s %.2f%%",
					row.X, tb.Algorithms[incr], d.Cells[incr].Mean, tb.Algorithms[full], d.Cells[full].Mean)
			}
		}
		if fullSends == 0 {
			t.Errorf("%s issued no repair sends across the sweep; the policy comparison is vacuous", tb.Algorithms[full])
		}
		if incrSends >= fullSends {
			t.Errorf("%s issued %.2f repair sends, %s %.2f; want incremental strictly fewer",
				tb.Algorithms[incr], incrSends, tb.Algorithms[full], fullSends)
		}
	}
}

// TestChurnSweepShardedBitIdentical: the engine determinism contract
// holds for churn cells — splitting F5 across shard runs with a shared
// cache, then merging, reproduces the serial cold tables byte for byte,
// and the merge recomputes nothing.
func TestChurnSweepShardedBitIdentical(t *testing.T) {
	serial := f5Format(churnSweepT(t, nil))
	dir := t.TempDir()
	const shards = 2
	for sh := 0; sh < shards; sh++ {
		ex := &runner.Exec{Shard: sh, NShards: shards, Cache: openCache(t, dir), Resume: true}
		part := churnSweepT(t, ex)
		if sh < shards-1 && !part.Latency.Incomplete {
			t.Fatalf("shard %d/%d: tables not marked incomplete", sh, shards)
		}
	}
	sum := &runner.Summary{}
	merged := churnSweepT(t, &runner.Exec{Cache: openCache(t, dir), Resume: true, Summary: sum})
	if merged.Latency.Incomplete {
		t.Fatal("merge run incomplete")
	}
	if got := f5Format(merged); got != serial {
		t.Fatalf("sharded merge differs from serial cold run:\nserial:\n%s\nmerged:\n%s", serial, got)
	}
	if sum.Computed != 0 || sum.Cached == 0 {
		t.Fatalf("merge computed %d cells (want 0), cached %d", sum.Computed, sum.Cached)
	}
}

// TestChurnSweepKernelsAgree: every churn cell is bit-identical across
// the fast and reference wormhole kernels.
func TestChurnSweepKernelsAgree(t *testing.T) {
	run := func(k wormhole.Kernel) string {
		ms := smallMeshSuite()
		bs := smallBMINSuite()
		for _, s := range []*Suite{ms, bs} {
			s.Trials = 2
			base := s.Platform.NewNet
			kk := k
			s.Platform.NewNet = func() *wormhole.Network {
				n := base()
				n.SetKernel(kk)
				return n
			}
		}
		f5, err := ChurnSweep(ms, bs, 12, 512, []int{3200}, 11)
		if err != nil {
			t.Fatal(err)
		}
		return f5Format(f5)
	}
	if fast, ref := run(wormhole.KernelFast), run(wormhole.KernelReference); fast != ref {
		t.Fatalf("kernels render different F5 tables:\nfast:\n%s\nreference:\n%s", fast, ref)
	}
}

// TestChurnSweepValidation rejects negative churn rates.
func TestChurnSweepValidation(t *testing.T) {
	if _, err := ChurnSweep(smallMeshSuite(), smallBMINSuite(), 8, 512, []int{-1}, 1); err == nil {
		t.Error("negative churn rate accepted")
	}
}
