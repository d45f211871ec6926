package exp

// Determinism properties of the cell engine: however a sweep is
// executed — serial, sharded across n runs, cold or from a warm cache,
// interrupted and resumed, on either wormhole kernel — the merged table
// must be byte-identical to a serial cold run. These are the invariants
// CI's sharded figure smokes rely on.

import (
	"testing"

	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/wormhole"
)

// engineSuite is an 8x8 mesh suite on the given kernel wired to ex.
func engineSuite(k wormhole.Kernel, ex *runner.Exec) *Suite {
	p := MeshPlatform(8, 8, wormhole.DefaultConfig())
	base := p.NewNet
	p.NewNet = func() *wormhole.Network {
		n := base()
		n.SetKernel(k)
		return n
	}
	s := DefaultSuite(p)
	s.Trials = 3
	s.Exec = ex
	if ex == nil {
		s.Exec = &runner.Exec{Workers: 2}
	}
	return s
}

// sweep renders the reference sweep under the given kernel and exec.
func sweep(t *testing.T, k wormhole.Kernel, ex *runner.Exec) *Table {
	t.Helper()
	tab, err := engineSuite(k, ex).SweepSizes("d", 12, []int{256, 4096}, MeshAlgorithms())
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func openCache(t *testing.T, dir string) *runner.Cache {
	t.Helper()
	c, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShardedSweepBitIdentical: splitting a sweep across k shard runs
// with a shared cache, then merging, reproduces the serial cold table
// byte for byte, and the merge recomputes nothing.
func TestShardedSweepBitIdentical(t *testing.T) {
	for _, kernel := range []wormhole.Kernel{wormhole.KernelFast, wormhole.KernelReference} {
		serial := sweep(t, kernel, nil).Format()
		dir := t.TempDir()
		const shards = 3
		for sh := 0; sh < shards; sh++ {
			ex := &runner.Exec{Shard: sh, NShards: shards, Cache: openCache(t, dir), Resume: true}
			part := sweep(t, kernel, ex)
			if sh < shards-1 && !part.Incomplete {
				t.Fatalf("kernel %v shard %d/%d: table not marked incomplete", kernel, sh, shards)
			}
		}
		sum := &runner.Summary{}
		ex := &runner.Exec{Cache: openCache(t, dir), Resume: true, Summary: sum}
		merged := sweep(t, kernel, ex)
		if merged.Incomplete {
			t.Fatalf("kernel %v: merge run incomplete", kernel)
		}
		if got := merged.Format(); got != serial {
			t.Fatalf("kernel %v: sharded merge differs from serial cold run:\nserial:\n%s\nmerged:\n%s", kernel, serial, got)
		}
		if sum.Computed != 0 || sum.Cached == 0 {
			t.Fatalf("kernel %v: merge computed %d cells (want 0), cached %d", kernel, sum.Computed, sum.Cached)
		}
	}
}

// TestWarmCacheBitIdentical: a warm rerun serves everything from cache
// and still renders the identical table.
func TestWarmCacheBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cold := sweep(t, wormhole.KernelFast, &runner.Exec{Cache: openCache(t, dir), Resume: true})
	sum := &runner.Summary{}
	warm := sweep(t, wormhole.KernelFast, &runner.Exec{Cache: openCache(t, dir), Resume: true, Summary: sum})
	if got, want := warm.Format(), cold.Format(); got != want {
		t.Fatalf("warm cache changed the table:\ncold:\n%s\nwarm:\n%s", want, got)
	}
	if sum.Computed != 0 {
		t.Fatalf("warm run recomputed %d cells", sum.Computed)
	}
}

// TestInterruptedThenResumed: a run that dies partway (simulated by a
// shard run that only computed its slice) leaves whole cache entries
// behind; resuming completes the rest and matches the serial table.
func TestInterruptedThenResumed(t *testing.T) {
	serial := sweep(t, wormhole.KernelFast, nil).Format()
	dir := t.TempDir()
	// "Interrupted": only a third of the cells landed in the cache.
	partSum := &runner.Summary{}
	sweep(t, wormhole.KernelFast, &runner.Exec{Shard: 0, NShards: 3, Cache: openCache(t, dir), Resume: true, Summary: partSum})
	if partSum.Computed == 0 || partSum.Skipped == 0 {
		t.Fatalf("partial run computed=%d skipped=%d, want both nonzero", partSum.Computed, partSum.Skipped)
	}
	sum := &runner.Summary{}
	resumed := sweep(t, wormhole.KernelFast, &runner.Exec{Cache: openCache(t, dir), Resume: true, Summary: sum})
	if resumed.Incomplete {
		t.Fatal("resumed run incomplete")
	}
	if got := resumed.Format(); got != serial {
		t.Fatalf("resumed run differs from serial cold run:\nserial:\n%s\nresumed:\n%s", serial, got)
	}
	if sum.Cached != partSum.Computed {
		t.Fatalf("resume reused %d cells, the interrupted run computed %d", sum.Cached, partSum.Computed)
	}
}

// TestFaultSweepShardedBitIdentical: the property holds through the
// fault/recovery composition too, whose 0% row shares cache entries
// with healthy mcast cells.
func TestFaultSweepShardedBitIdentical(t *testing.T) {
	run := func(ex *runner.Exec) *Table {
		mesh := smallMeshSuite()
		bmin := smallBMINSuite()
		mesh.Trials, bmin.Trials = 2, 2
		mesh.Exec, bmin.Exec = ex, ex
		tab, err := FaultSweep(mesh, bmin, 8, 1024, []int{0, 2}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	serial := run(nil).Format()
	dir := t.TempDir()
	for sh := 0; sh < 2; sh++ {
		run(&runner.Exec{Shard: sh, NShards: 2, Cache: openCache(t, dir), Resume: true})
	}
	sum := &runner.Summary{}
	merged := run(&runner.Exec{Cache: openCache(t, dir), Resume: true, Summary: sum})
	if got := merged.Format(); got != serial {
		t.Fatalf("sharded fault sweep differs from serial:\nserial:\n%s\nmerged:\n%s", serial, got)
	}
	if sum.Computed != 0 {
		t.Fatalf("merge recomputed %d cells", sum.Computed)
	}
}

// TestCompositionsOneBatch: a figure composed over several suites — one
// per column (contention) or one per row (policy) — is one engine batch
// under its own title. Every shard run defers it, and the merge
// reproduces the serial table from cache alone.
func TestCompositionsOneBatch(t *testing.T) {
	for _, fig := range []struct {
		name string
		run  func(ex *runner.Exec) (*Table, error)
	}{
		{"contention", func(ex *runner.Exec) (*Table, error) {
			ms, bs := smallMeshSuite(), smallBMINSuite()
			ms.Trials, bs.Trials = 2, 2
			ms.Exec, bs.Exec = ex, ex
			return ContentionComparison(ms, bs, 8, []int{256, 1024})
		}},
		{"policy", func(ex *runner.Exec) (*Table, error) {
			return PolicyAblation(64, wormhole.DefaultConfig(), model.DefaultSoftware(), 2, 11, 8, 1024, ex)
		}},
	} {
		run := func(ex *runner.Exec) *Table {
			tab, err := fig.run(ex)
			if err != nil {
				t.Fatalf("%s: %v", fig.name, err)
			}
			return tab
		}
		serial := run(nil).Format()
		dir := t.TempDir()
		for sh := 0; sh < 2; sh++ {
			if part := run(&runner.Exec{Shard: sh, NShards: 2, Cache: openCache(t, dir)}); !part.Incomplete {
				t.Fatalf("%s: shard %d/2 did not defer its table", fig.name, sh)
			}
		}
		sum := &runner.Summary{}
		merged := run(&runner.Exec{Cache: openCache(t, dir), Resume: true, Summary: sum})
		if got := merged.Format(); got != serial {
			t.Fatalf("%s: sharded merge differs from serial:\nserial:\n%s\nmerged:\n%s", fig.name, serial, got)
		}
		if sum.Computed != 0 || len(sum.Batches) != 1 || sum.Batches[0].Label != merged.Title {
			t.Fatalf("%s: merge computed %d cells in batches %+v, want 0 cells in one batch titled %q",
				fig.name, sum.Computed, sum.Batches, merged.Title)
		}
	}
}
