package traffic_test

// Engine-level battery: sanity of the service accounting, the
// determinism contract (rerun / fast-vs-reference kernel DeepEqual),
// admission-control behaviour, and configuration validation.

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bmin"
	"repro/internal/core"
	"repro/internal/mcastsim"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/traffic"
	"repro/internal/wormhole"
)

var testSoft = model.Software{
	Send: model.Linear{Fixed: 200, PerByte: 0.15},
	Recv: model.Linear{Fixed: 200, PerByte: 0.15},
	Hold: model.Linear{Fixed: 200, PerByte: 0.15},
}

// calibrateSizes measures t_end per message size on a healthy fabric,
// the way every experiment driver calibrates before running.
func calibrateSizes(t *testing.T, topo wormhole.Topology, sizes []int) func(int) model.Time {
	t.Helper()
	tends := make(map[int]model.Time, len(sizes))
	for _, b := range sizes {
		net := wormhole.New(topo, wormhole.DefaultConfig())
		tend, err := mcastsim.Unicast(net, 0, topo.NumNodes()-1, b, mcastsim.Config{Software: testSoft})
		if err != nil {
			t.Fatal(err)
		}
		tends[b] = tend
	}
	return func(b int) model.Time { return tends[b] }
}

// meshConfig is the battery's base scenario: Poisson arrivals at a
// moderate rate on an 8x8 mesh, mixed k and sizes, OPT tables over the
// dim-order chain, unbounded FIFO admission.
func meshConfig(t *testing.T) (*mesh.Mesh, traffic.Config) {
	t.Helper()
	m := mesh.New2D(8, 8)
	sizes := []int{256, 1024}
	cfg := traffic.Config{
		Software: testSoft,
		Arrival:  traffic.ArrivalSpec{Kind: traffic.ArrivalPoisson, RatePerMcycle: 120},
		Load:     traffic.Workload{Ks: []int{4, 8}, Sizes: sizes},
		Admit:    traffic.Admission{Policy: traffic.AdmissionFIFO},
		Requests: 60,
		Warmup:   10,
		Less:     m.DimOrderLess,
		Plan:     func(k int, thold, tend model.Time) core.SplitTable { return core.NewOptTable(k, thold, tend) },
		TEnd:     calibrateSizes(t, m, sizes),
		Seed:     7,
	}
	return m, cfg
}

func runTraffic(t *testing.T, topo wormhole.Topology, kernel wormhole.Kernel, cfg traffic.Config) traffic.Result {
	t.Helper()
	net := wormhole.New(topo, wormhole.DefaultConfig())
	net.SetKernel(kernel)
	res, err := traffic.Run(net, cfg)
	if err != nil {
		t.Fatalf("traffic run errored: %v", err)
	}
	return res
}

func TestTrafficServiceAccounting(t *testing.T) {
	m, cfg := meshConfig(t)
	res := runTraffic(t, m, wormhole.KernelFast, cfg)

	if got := len(res.Requests); got != cfg.Requests {
		t.Fatalf("recorded %d requests, want %d", got, cfg.Requests)
	}
	if res.Metrics.Shed != 0 {
		t.Fatalf("FIFO admission shed %d requests", res.Metrics.Shed)
	}
	if res.Metrics.Completed != cfg.Requests {
		t.Fatalf("completed %d of %d requests under FIFO", res.Metrics.Completed, cfg.Requests)
	}
	for i, rr := range res.Requests {
		if rr.Shed {
			t.Fatalf("request %d shed under FIFO", i)
		}
		if rr.Start < rr.Arrive || rr.Done < rr.Start {
			t.Fatalf("request %d time order broken: arrive=%d start=%d done=%d", i, rr.Arrive, rr.Start, rr.Done)
		}
		for pos, d := range rr.Delivered {
			if !d {
				t.Fatalf("request %d position %d undelivered on a healthy fabric", i, pos)
			}
		}
		if rr.Abandoned != 0 {
			t.Fatalf("request %d abandoned %d destinations on a healthy fabric", i, rr.Abandoned)
		}
	}
	mt := res.Metrics
	if mt.P50 <= 0 || mt.P99 < mt.P50 || mt.P999 < mt.P99 {
		t.Fatalf("latency quantiles inconsistent: p50=%g p99=%g p999=%g", mt.P50, mt.P99, mt.P999)
	}
	if mt.OfferedPerMcycle <= 0 || mt.DeliveredPerMcycle <= 0 {
		t.Fatalf("throughput not measured: offered=%g delivered=%g", mt.OfferedPerMcycle, mt.DeliveredPerMcycle)
	}
	if mt.MeanOccupancy <= 0 {
		t.Fatalf("occupancy not measured: %g", mt.MeanOccupancy)
	}
	if mt.Worms <= 0 {
		t.Fatalf("no worms crossed the fabric")
	}
}

// TestTrafficDeterminism: same seed, same config -> DeepEqual-identical
// Result across reruns and across the fast and reference kernels, for
// every arrival process and with hot-spot skew on.
func TestTrafficDeterminism(t *testing.T) {
	m, base := meshConfig(t)
	bursty := base
	bursty.Arrival = traffic.ArrivalSpec{Kind: traffic.ArrivalBursty, RatePerMcycle: 120}
	skewed := base
	skewed.Load.HotFrac = 0.7
	skewed.Load.HotNodes = 6
	bounded := base
	bounded.Arrival.RatePerMcycle = 600
	bounded.Admit = traffic.Admission{Policy: traffic.AdmissionBounded, MaxInFlight: 2, QueueCap: 3}

	for name, cfg := range map[string]traffic.Config{
		"poisson": base, "bursty": bursty, "hotspot": skewed, "bounded": bounded,
	} {
		res := runTraffic(t, m, wormhole.KernelFast, cfg)
		again := runTraffic(t, m, wormhole.KernelFast, cfg)
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("%s: rerun diverged", name)
		}
		ref := runTraffic(t, m, wormhole.KernelReference, cfg)
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("%s: kernels diverged:\n fast %+v\n ref  %+v", name, res.Metrics, ref.Metrics)
		}
	}
}

// TestTrafficSeedSensitivity: distinct seeds draw distinct workloads.
func TestTrafficSeedSensitivity(t *testing.T) {
	m, cfg := meshConfig(t)
	res := runTraffic(t, m, wormhole.KernelFast, cfg)
	cfg.Seed++
	other := runTraffic(t, m, wormhole.KernelFast, cfg)
	if reflect.DeepEqual(res, other) {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestTrafficBoundedShed: a saturating rate against a tiny service
// capacity must shed — and every shed request is reported as shed, with
// the books balancing exactly (nothing silently dropped).
func TestTrafficBoundedShed(t *testing.T) {
	m, cfg := meshConfig(t)
	cfg.Arrival.RatePerMcycle = 2000
	cfg.Admit = traffic.Admission{Policy: traffic.AdmissionBounded, MaxInFlight: 1, QueueCap: 1}
	res := runTraffic(t, m, wormhole.KernelFast, cfg)

	if res.Metrics.Shed == 0 {
		t.Fatal("saturating rate against capacity 1+1 shed nothing; the bounded policy is inert")
	}
	shedFlags := 0
	for i, rr := range res.Requests {
		if rr.Shed {
			shedFlags++
			if rr.Start != -1 || rr.Done != -1 || rr.Delivered != nil {
				t.Fatalf("shed request %d carries service state: %+v", i, rr)
			}
		}
	}
	if shedFlags != res.Metrics.Shed {
		t.Fatalf("%d requests flagged shed but Metrics.Shed=%d", shedFlags, res.Metrics.Shed)
	}
	if res.Metrics.Completed+res.Metrics.Shed != cfg.Requests {
		t.Fatalf("accounting leak: %d completed + %d shed != %d requests",
			res.Metrics.Completed, res.Metrics.Shed, cfg.Requests)
	}
}

// TestTrafficQueueingDelay: with one server and a hot arrival rate, FIFO
// requests must visibly wait, and waiting must grow the completion
// latency beyond the queue-free case.
func TestTrafficQueueingDelay(t *testing.T) {
	m, cfg := meshConfig(t)
	cfg.Arrival.RatePerMcycle = 2000
	cfg.Admit = traffic.Admission{Policy: traffic.AdmissionFIFO, MaxInFlight: 1}
	res := runTraffic(t, m, wormhole.KernelFast, cfg)
	if res.Metrics.MeanQueueDelay <= 0 || res.Metrics.MaxQueueDelay <= 0 {
		t.Fatalf("no queueing delay at a saturating rate: mean=%g max=%d",
			res.Metrics.MeanQueueDelay, res.Metrics.MaxQueueDelay)
	}
	relaxed := cfg
	relaxed.Arrival.RatePerMcycle = 20
	quiet := runTraffic(t, m, wormhole.KernelFast, relaxed)
	if res.Metrics.P99 <= quiet.Metrics.P99 {
		t.Fatalf("saturated p99 (%g) not above quiet p99 (%g)", res.Metrics.P99, quiet.Metrics.P99)
	}
}

// TestTrafficBMIN: the engine is fabric-agnostic; a BMIN run completes
// and stays deterministic across kernels.
func TestTrafficBMIN(t *testing.T) {
	b := bmin.New(64, bmin.AscentStraight)
	sizes := []int{512}
	cfg := traffic.Config{
		Software: testSoft,
		Arrival:  traffic.ArrivalSpec{Kind: traffic.ArrivalPoisson, RatePerMcycle: 100},
		Load:     traffic.Workload{Ks: []int{6}, Sizes: sizes},
		Admit:    traffic.Admission{Policy: traffic.AdmissionFIFO},
		Requests: 30,
		Warmup:   5,
		Less:     b.LexLess,
		Plan:     func(k int, thold, tend model.Time) core.SplitTable { return core.NewOptTable(k, thold, tend) },
		TEnd:     calibrateSizes(t, b, sizes),
		Seed:     11,
	}
	res := runTraffic(t, b, wormhole.KernelFast, cfg)
	if res.Metrics.Completed != cfg.Requests {
		t.Fatalf("BMIN completed %d of %d", res.Metrics.Completed, cfg.Requests)
	}
	ref := runTraffic(t, b, wormhole.KernelReference, cfg)
	if !reflect.DeepEqual(res, ref) {
		t.Fatal("BMIN kernels diverged")
	}
}

func TestTrafficValidation(t *testing.T) {
	m, good := meshConfig(t)
	cases := map[string]struct {
		mutate func(*traffic.Config)
		want   string
	}{
		"zero rate":     {func(c *traffic.Config) { c.Arrival.RatePerMcycle = 0 }, "rate must be > 0"},
		"bad arrival":   {func(c *traffic.Config) { c.Arrival.Kind = "fractal" }, "unknown arrival process"},
		"bad admission": {func(c *traffic.Config) { c.Admit.Policy = "lifo" }, "unknown admission policy"},
		"no requests":   {func(c *traffic.Config) { c.Requests = 0 }, "Requests must be >= 1"},
		"warmup high":   {func(c *traffic.Config) { c.Warmup = c.Requests }, "outside [0, Requests"},
		"tiny group":    {func(c *traffic.Config) { c.Load.Ks = []int{1} }, "group size 1"},
		"no sizes":      {func(c *traffic.Config) { c.Load.Sizes = nil }, "at least one message size"},
		"bad hotfrac":   {func(c *traffic.Config) { c.Load.HotFrac = 1.5 }, "HotFrac"},
		"NaN hotfrac":   {func(c *traffic.Config) { c.Load.HotFrac = math.NaN() }, "HotFrac"},
		"NaN rate":      {func(c *traffic.Config) { c.Arrival.RatePerMcycle = math.NaN() }, "rate must be > 0"},
		"+Inf rate":     {func(c *traffic.Config) { c.Arrival.RatePerMcycle = math.Inf(1) }, "rate must be > 0"},
		"hot no set":    {func(c *traffic.Config) { c.Load.HotFrac = 0.5 }, "HotNodes"},
		"nil plan":      {func(c *traffic.Config) { c.Plan = nil }, "Plan"},
		"nil tend":      {func(c *traffic.Config) { c.TEnd = nil }, "TEnd"},
	}
	for name, tc := range cases {
		cfg := good
		tc.mutate(&cfg)
		_, err := traffic.Run(wormhole.New(m, wormhole.DefaultConfig()), cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want substring %q", name, err, tc.want)
		}
	}
}
