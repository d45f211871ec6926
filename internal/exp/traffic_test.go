package exp

// F3 extensions of the engine determinism battery, plus the figure's
// capacity claims. The open-system cells are the heaviest in the repo —
// each is a full traffic run — so the battery drives a small 8x8 mesh /
// 64-node BMIN configuration; the properties (shard/merge bit-identity,
// kernel agreement, warm-cache zero recomputes, saturation ordering) are
// scale-free.

import (
	"strings"
	"testing"

	"repro/internal/bmin"
	"repro/internal/runner"
	"repro/internal/wormhole"
)

func trafficTestScenario() TrafficScenario {
	return TrafficScenario{
		Ks:          []int{8, 16},
		Sizes:       []int{1024},
		Requests:    48,
		Warmup:      8,
		MaxInFlight: 2,
		Trials:      2,
	}
}

func trafficTestRates() []int { return []int{25, 50, 100, 200, 400, 800} }

// trafficSweep renders the reference F3 sweep on the small platforms
// under the given kernel and exec.
func trafficSweep(t *testing.T, kernel wormhole.Kernel, ex *runner.Exec) *F3Tables {
	t.Helper()
	onKernel := func(p Platform) Platform {
		base := p.NewNet
		p.NewNet = func() *wormhole.Network {
			n := base()
			n.SetKernel(kernel)
			return n
		}
		return p
	}
	mesh := DefaultSuite(onKernel(MeshPlatform(8, 8, wormhole.DefaultConfig())))
	bm := DefaultSuite(onKernel(BMINPlatform(64, bmin.AscentStraight, wormhole.DefaultConfig())))
	mesh.Exec, bm.Exec = ex, ex
	f3, err := TrafficSweep(mesh, bm, trafficTestRates(), trafficTestScenario())
	if err != nil {
		t.Fatal(err)
	}
	return f3
}

func f3Format(f3 *F3Tables) string {
	return f3.Latency.Format() + "\n" + f3.Throughput.Format() + "\n" + f3.Queue.Format()
}

// TestTrafficSweepShardedBitIdentical: the engine determinism contract
// holds for open-system cells too — splitting the F3 sweep across shard
// runs with a shared cache, then merging, reproduces the serial cold
// tables byte for byte, and the merge recomputes nothing.
func TestTrafficSweepShardedBitIdentical(t *testing.T) {
	serial := f3Format(trafficSweep(t, wormhole.KernelFast, nil))
	dir := t.TempDir()
	const shards = 2
	for sh := 0; sh < shards; sh++ {
		ex := &runner.Exec{Shard: sh, NShards: shards, Cache: openCache(t, dir), Resume: true}
		part := trafficSweep(t, wormhole.KernelFast, ex)
		if sh < shards-1 && !part.Latency.Incomplete {
			t.Fatalf("shard %d/%d: tables not marked incomplete", sh, shards)
		}
	}
	sum := &runner.Summary{}
	merged := trafficSweep(t, wormhole.KernelFast, &runner.Exec{Cache: openCache(t, dir), Resume: true, Summary: sum})
	if merged.Latency.Incomplete {
		t.Fatal("merge run incomplete")
	}
	if got := f3Format(merged); got != serial {
		t.Fatalf("sharded merge differs from serial cold run:\nserial:\n%s\nmerged:\n%s", serial, got)
	}
	if sum.Computed != 0 || sum.Cached == 0 {
		t.Fatalf("merge computed %d cells (want 0), cached %d", sum.Computed, sum.Cached)
	}
}

// TestTrafficSweepKernelsAgree: the whole figure — every quantile of
// every open-system cell — is bit-identical across the fast and
// reference wormhole kernels.
func TestTrafficSweepKernelsAgree(t *testing.T) {
	fast := f3Format(trafficSweep(t, wormhole.KernelFast, nil))
	ref := f3Format(trafficSweep(t, wormhole.KernelReference, nil))
	if fast != ref {
		t.Fatalf("kernels render different F3 tables:\nfast:\n%s\nreference:\n%s", fast, ref)
	}
}

// TestTrafficSweepSaturationCrossover: the figure's capacity claims.
// Every series must reach its saturation knee inside the rate grid, and
// on each fabric the tuned OPT tree must saturate at a strictly higher
// offered rate than the binomial baseline — the paper's latency
// advantage restated as open-system capacity.
func TestTrafficSweepSaturationCrossover(t *testing.T) {
	f3 := trafficSweep(t, wormhole.KernelFast, nil)
	sat := make([]float64, len(f3.Latency.Algorithms))
	for ci, name := range f3.Latency.Algorithms {
		r, ok := SaturationRate(f3.Latency, ci, nil, SaturationFactor)
		if !ok {
			t.Fatalf("%s: no saturation point inside rates %v:\n%s",
				name, trafficTestRates(), f3.Latency.Format())
		}
		sat[ci] = r
	}
	// Columns: U-mesh, OPT-tree, OPT-mesh, U-min, OPT-min.
	if sat[2] <= sat[0] {
		t.Errorf("mesh: OPT-mesh saturates at %g req/Mcycle, U-mesh at %g; want OPT strictly later",
			sat[2], sat[0])
	}
	if sat[4] <= sat[3] {
		t.Errorf("BMIN: OPT-min saturates at %g req/Mcycle, U-min at %g; want OPT strictly later",
			sat[4], sat[3])
	}
	// Past the binomial knee the delivered-throughput curves separate:
	// at the top rate OPT must deliver strictly more than binomial.
	top := f3.Throughput.Rows[len(f3.Throughput.Rows)-1]
	if opt, u := top.Cells[2].Mean, top.Cells[0].Mean; opt <= u {
		t.Errorf("mesh at %g req/Mcycle: OPT-mesh delivers %.0f/Mcycle, U-mesh %.0f; want OPT higher",
			top.X, opt, u)
	}
	if opt, u := top.Cells[4].Mean, top.Cells[3].Mean; opt <= u {
		t.Errorf("BMIN at %g req/Mcycle: OPT-min delivers %.0f/Mcycle, U-min %.0f; want OPT higher",
			top.X, opt, u)
	}
	// The saturation notes must name every series.
	notes := strings.Join(f3.Latency.Notes, "\n")
	for _, name := range f3.Latency.Algorithms {
		if !strings.Contains(notes, "saturation "+name) {
			t.Errorf("latency notes missing a saturation line for %s:\n%s", name, notes)
		}
	}
}

// TestTrafficSweepValidation: the sweep rejects malformed rate grids.
func TestTrafficSweepValidation(t *testing.T) {
	mesh, bm := smallMeshSuite(), smallBMINSuite()
	sc := trafficTestScenario()
	for _, tc := range []struct {
		name  string
		rates []int
		want  string
	}{
		{"empty", nil, "at least one offered rate"},
		{"nonpositive", []int{0, 100}, "must be > 0"},
		{"nonincreasing", []int{100, 100}, "must increase"},
	} {
		_, err := TrafficSweep(mesh, bm, tc.rates, sc)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
