package exp

// Determinism battery for the F6 tuner sweep: the crossover surface
// built serially must be byte-identical to one built as 2 shards and
// merged from the warm cache, and the compiled selector decisions must
// agree across the fast and reference wormhole kernels and across
// reruns. (The recalibration switch-point regression lives in
// internal/tuner.)

import (
	"strings"
	"testing"

	"repro/internal/bmin"
	"repro/internal/runner"
	"repro/internal/tuner"
	"repro/internal/wormhole"
)

func tunerTestGrid() TunerGrid {
	return TunerGrid{Ks: []int{4, 8}, Bytes: []int{512}, FaultPcts: []int{0, 1}}
}

// tunerSweep runs the reference F6 sweep on the small platforms under
// the given kernel wrap and exec. wrap is applied to each platform's
// NewNet (nil = stock fast kernel).
func tunerSweep(t *testing.T, wrap func(*wormhole.Network), ex *runner.Exec) *F6Tables {
	t.Helper()
	onKernel := func(p Platform) Platform {
		if wrap == nil {
			return p
		}
		base := p.NewNet
		p.NewNet = func() *wormhole.Network {
			n := base()
			wrap(n)
			return n
		}
		return p
	}
	mesh := DefaultSuite(onKernel(MeshPlatform(8, 8, wormhole.DefaultConfig())))
	bm := DefaultSuite(onKernel(BMINPlatform(64, bmin.AscentStraight, wormhole.DefaultConfig())))
	mesh.Trials, bm.Trials = 2, 2
	if ex == nil {
		ex = &runner.Exec{Workers: 2}
	}
	mesh.Exec, bm.Exec = ex, ex
	f6, err := TunerSweep(mesh, bm, tunerTestGrid(), 7)
	if err != nil {
		t.Fatal(err)
	}
	return f6
}

// f6Format renders everything a golden byte-identity check cares
// about: all three tables plus the surface-set artifact bytes.
func f6Format(t *testing.T, f6 *F6Tables) string {
	t.Helper()
	buf, err := tuner.EncodeSet(f6.Surfaces...)
	if err != nil {
		t.Fatal(err)
	}
	return f6.Selection.Format() + "\n" + f6.Latency.Format() + "\n" +
		f6.Regret.Format() + "\n" + string(buf)
}

// TestTunerSweepShardedBitIdentical: the surface built serially equals
// the surface built as 2 shards and merged — tables and encoded
// artifact byte for byte — and the warm merge recomputes nothing. Each
// shard run, like mcastbench -shard without -resume, defers all three
// views, and each deferred view keeps its own title.
func TestTunerSweepShardedBitIdentical(t *testing.T) {
	serial := f6Format(t, tunerSweep(t, nil, nil))
	dir := t.TempDir()
	for sh := 0; sh < 2; sh++ {
		part := tunerSweep(t, nil, &runner.Exec{Shard: sh, NShards: 2, Cache: openCache(t, dir)})
		for _, v := range []struct {
			tab   *Table
			title string
		}{{part.Selection, "F6a:"}, {part.Latency, "F6b:"}, {part.Regret, "F6c:"}} {
			if !v.tab.Incomplete || !strings.HasPrefix(v.tab.Title, v.title) {
				t.Fatalf("shard %d/2: table %q (incomplete %v), want an incomplete %s table", sh, v.tab.Title, v.tab.Incomplete, v.title)
			}
		}
	}
	sum := &runner.Summary{}
	merged := tunerSweep(t, nil, &runner.Exec{Cache: openCache(t, dir), Resume: true, Summary: sum})
	if merged.Selection.Incomplete {
		t.Fatal("merge run incomplete")
	}
	if got := f6Format(t, merged); got != serial {
		t.Fatalf("sharded F6 differs from serial cold run:\nserial:\n%s\nmerged:\n%s", serial, got)
	}
	if sum.Computed != 0 || sum.Cached == 0 {
		t.Fatalf("merge computed %d cells (want 0), cached %d", sum.Computed, sum.Cached)
	}
}

// TestTunerSurfaceKernelAgreement: the fast and reference kernels build
// content-identical surfaces, so the compiled selector decisions cannot
// depend on which kernel measured the training cells. A rerun on the
// same kernel must also agree (replay determinism).
func TestTunerSurfaceKernelAgreement(t *testing.T) {
	wraps := map[string]func(*wormhole.Network){
		"fast":      func(n *wormhole.Network) { n.SetKernel(wormhole.KernelFast) },
		"reference": func(n *wormhole.Network) { n.SetKernel(wormhole.KernelReference) },
	}
	base := f6Format(t, tunerSweep(t, wraps["fast"], nil))
	for name, wrap := range wraps {
		got := f6Format(t, tunerSweep(t, wrap, nil))
		if got != base {
			t.Errorf("kernel %s diverged from fast kernel:\nfast:\n%s\n%s:\n%s", name, base, name, got)
		}
	}
}
