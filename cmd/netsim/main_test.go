package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		buf := make([]byte, 1<<20)
		var out []byte
		for {
			n, err := r.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(out)
	}()
	ferr := fn()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return <-done, ferr
}

func base() options {
	return options{
		topo: "mesh", w: 8, h: 8, nodes: 64, policy: "straight",
		algo: "opt", k: 12, bytes: 1024, seed: 3,
	}
}

func TestMeshOptContentionFree(t *testing.T) {
	out, err := capture(t, func() error { return run(base()) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "contention:          0 blocked") {
		t.Fatalf("OPT on mesh contended:\n%s", out)
	}
}

func TestAllTopologiesAndAlgos(t *testing.T) {
	for _, topo := range []string{"mesh", "bmin", "bfly"} {
		for _, algo := range []string{"opt", "opt-tree", "binomial", "sequential"} {
			o := base()
			o.topo, o.algo = topo, algo
			if _, err := capture(t, func() error { return run(o) }); err != nil {
				t.Fatalf("%s/%s: %v", topo, algo, err)
			}
		}
	}
}

func TestBMINPolicies(t *testing.T) {
	for _, pol := range []string{"straight", "dest", "adaptive", "adaptive-dest"} {
		o := base()
		o.topo, o.policy = "bmin", pol
		if _, err := capture(t, func() error { return run(o) }); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	}
}

func TestVerboseAndTraceOutputs(t *testing.T) {
	o := base()
	o.verbose, o.gantt, o.heatmap = true, true, true
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"deliveries", "message timeline", "hottest channels", "heatmap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHeatmapRequiresMesh(t *testing.T) {
	for _, topo := range []string{"bmin", "bfly", "torus"} {
		o := base()
		o.topo, o.heatmap = topo, true
		_, err := capture(t, func() error { return run(o) })
		if err == nil || !strings.Contains(err.Error(), "heatmap requires a 2-D mesh") {
			t.Fatalf("%s: want a clear heatmap error, got %v", topo, err)
		}
	}
}

func TestFaultFlags(t *testing.T) {
	o := base()
	o.faults, o.degraded, o.flaky, o.faultSeed = 2, 5, 5, 3
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fault plan seed=3") {
		t.Fatalf("missing fault plan summary:\n%s", out)
	}
	// Same seed, same plan, same outcome.
	again, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if again != out {
		t.Fatalf("faulted run not reproducible:\n--- first\n%s\n--- second\n%s", out, again)
	}
}

func TestFaultsCanPartition(t *testing.T) {
	// Seed 1 kills a link whose column the detour cannot route around;
	// the run must fail fast with the unreachable diagnostic, not hang.
	o := base()
	o.faults, o.faultSeed = 2, 1
	_, err := capture(t, func() error { return run(o) })
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("want unreachable error, got %v", err)
	}
}

func TestDeadlineFlag(t *testing.T) {
	o := base()
	o.deadline = 10
	_, err := capture(t, func() error { return run(o) })
	if err == nil || !strings.Contains(err.Error(), "not complete after 10 cycles") {
		t.Fatalf("want deadline error, got %v", err)
	}
}

func TestAddrBytesFlag(t *testing.T) {
	o := base()
	o.addrB = 16
	if _, err := capture(t, func() error { return run(o) }); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverCompletesWherePlainRunFails(t *testing.T) {
	// The TestFaultsCanPartition configuration: plain mcastsim aborts with
	// an unreachable destination. Recovery must instead finish the run and
	// account for every destination.
	o := base()
	o.faults, o.faultSeed, o.recover = 2, 1, true
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatalf("recovery errored where it must complete: %v", err)
	}
	for _, want := range []string{"delivered:", "give-ups (repairs):", "policy:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in recovery report:\n%s", want, out)
		}
	}
	again, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if again != out {
		t.Fatalf("recovered run not reproducible:\n--- first\n%s\n--- second\n%s", out, again)
	}
}

func TestRecoverVerboseStatuses(t *testing.T) {
	o := base()
	o.faults, o.faultSeed, o.recover, o.verbose = 8, 3, true, true
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cycle status") || !strings.Contains(out, "delivered") {
		t.Fatalf("verbose recovery output missing statuses:\n%s", out)
	}
}

func TestRecoverRequiresFaults(t *testing.T) {
	o := base()
	o.recover = true
	_, err := capture(t, func() error { return run(o) })
	if err == nil || !strings.Contains(err.Error(), "-recover needs something to recover from") {
		t.Fatalf("want explicit -recover/-faults coupling error, got %v", err)
	}
}

func TestFaultPercentValidation(t *testing.T) {
	for name, mut := range map[string]func(*options){
		"negative faults":   func(o *options) { o.faults = -1 },
		"faults over 100":   func(o *options) { o.faults = 101 },
		"negative degraded": func(o *options) { o.degraded = -0.5 },
		"degraded over 100": func(o *options) { o.degraded = 200 },
		"negative flaky":    func(o *options) { o.flaky = -3 },
		"flaky over 100":    func(o *options) { o.flaky = 100.5 },
	} {
		o := base()
		mut(&o)
		_, err := capture(t, func() error { return run(o) })
		if err == nil || !strings.Contains(err.Error(), "outside [0,100]") {
			t.Errorf("%s: want a range error, got %v", name, err)
		}
	}
}

func TestErrors(t *testing.T) {
	for name, mut := range map[string]func(*options){
		"bad topo":   func(o *options) { o.topo = "ring" },
		"bad algo":   func(o *options) { o.algo = "magic" },
		"bad policy": func(o *options) { o.topo, o.policy = "bmin", "zigzag" },
		"k too big":  func(o *options) { o.k = 1000 },
	} {
		o := base()
		mut(&o)
		if _, err := capture(t, func() error { return run(o) }); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestCacheRoundTripsBothPaths: a cached rerun prints the same stdout
// as the live run, for both the plain and the recovery path.
func TestCacheRoundTripsBothPaths(t *testing.T) {
	for _, rec := range []bool{false, true} {
		o := base()
		o.verbose = true
		o.cacheDir = t.TempDir()
		if rec {
			o.faults, o.faultSeed, o.recover = 3, 2, true
		}
		live, err := capture(t, func() error { return run(o) })
		if err != nil {
			t.Fatal(err)
		}
		cached, err := capture(t, func() error { return run(o) })
		if err != nil {
			t.Fatal(err)
		}
		if cached != live {
			t.Fatalf("recover=%v: cached rerun differs:\nlive:\n%s\ncached:\n%s", rec, live, cached)
		}
	}
}

func trafficBase() options {
	o := base()
	o.traffic, o.rate = true, 400
	o.arrival, o.admission = "poisson", "fifo"
	return o
}

// TestTrafficSummary: the open-system mode prints the steady-state
// service report and is reproducible run to run, across arrival
// processes and admission policies.
func TestTrafficSummary(t *testing.T) {
	for _, mut := range []func(*options){
		func(o *options) {},
		func(o *options) { o.arrival = "bursty" },
		func(o *options) { o.admission = "bounded"; o.rate = 2000 },
		func(o *options) { o.skew = 0.5 },
	} {
		o := trafficBase()
		mut(&o)
		out, err := capture(t, func() error { return run(o) })
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		for _, want := range []string{
			"traffic:", "offered (measured):", "delivered:",
			"completion latency:", "queueing delay:", "occupancy:",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in traffic summary:\n%s", want, out)
			}
		}
		again, err := capture(t, func() error { return run(o) })
		if err != nil {
			t.Fatal(err)
		}
		if again != out {
			t.Fatalf("traffic run not reproducible:\n--- first\n%s\n--- second\n%s", out, again)
		}
	}
}

// TestTrafficReliableUnderFaults: a fault plan flips the engine into
// Reliable mode and the summary reports the recovery overhead.
func TestTrafficReliableUnderFaults(t *testing.T) {
	o := trafficBase()
	o.faults, o.faultSeed = 3, 2
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "reliable delivery on") || !strings.Contains(out, "recovery:") {
		t.Fatalf("faulted traffic run missing the recovery report:\n%s", out)
	}
}

// TestTrafficValidation: malformed traffic flags fail with actionable
// errors instead of running.
func TestTrafficValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		mut  func(*options)
		want string
	}{
		"zero rate":         {func(o *options) { o.rate = 0 }, "rate must be > 0"},
		"negative rate":     {func(o *options) { o.rate = -5 }, "rate must be > 0"},
		"unknown arrival":   {func(o *options) { o.arrival = "steady" }, "unknown arrival process"},
		"unknown admission": {func(o *options) { o.admission = "lifo" }, "unknown admission policy"},
		"skew over 1":       {func(o *options) { o.skew = 1.5 }, "-skew"},
		"bad algo":          {func(o *options) { o.algo = "magic" }, "unknown algorithm"},
	} {
		o := trafficBase()
		tc.mut(&o)
		_, err := capture(t, func() error { return run(o) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", name, err, tc.want)
		}
	}
}

// TestTrafficHeatmapRejected: -heatmap has no meaning over an
// open-system run and must be refused up front.
func TestTrafficHeatmapRejected(t *testing.T) {
	o := trafficBase()
	o.heatmap = true
	_, err := capture(t, func() error { return run(o) })
	if err == nil || !strings.Contains(err.Error(), "-heatmap") || !strings.Contains(err.Error(), "-traffic") {
		t.Fatalf("want a clear -heatmap/-traffic coupling error, got %v", err)
	}
}

// TestTrafficCacheRoundTrip: a cached traffic rerun prints the same
// stdout as the live run — quantiles, rates and the -v per-request log
// all survive the metric/series encoding — healthy and faulted.
func TestTrafficCacheRoundTrip(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		o := trafficBase()
		o.verbose = true
		o.cacheDir = t.TempDir()
		if faulted {
			o.faults, o.faultSeed = 3, 2
		}
		live, err := capture(t, func() error { return run(o) })
		if err != nil {
			t.Fatal(err)
		}
		cached, err := capture(t, func() error { return run(o) })
		if err != nil {
			t.Fatal(err)
		}
		if cached != live {
			t.Fatalf("faulted=%v: cached traffic rerun differs:\nlive:\n%s\ncached:\n%s", faulted, live, cached)
		}
	}
}

// TestTrafficCacheKeySeparatesRates: the offered rate is part of the
// cache identity; changing it must miss, not replay.
func TestTrafficCacheKeySeparatesRates(t *testing.T) {
	o := trafficBase()
	o.cacheDir = t.TempDir()
	first, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	o.rate = 800
	second, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatal("different rates produced identical output through the cache")
	}
}

// TestCacheKeySeparatesRuns: changing an input (the placement seed)
// must miss the cache, not replay the previous run's numbers.
func TestCacheKeySeparatesRuns(t *testing.T) {
	o := base()
	o.cacheDir = t.TempDir()
	first, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	o.seed = 99
	second, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatal("different seeds produced identical output through the cache")
	}
}

func churnBase() options {
	o := base()
	o.churn, o.churnRate, o.rejoinFrac = true, 400, 0.5
	o.repairPolicy = "incr"
	return o
}

// TestChurnSummary: the churn mode prints the membership report under
// every repair policy and is reproducible run to run.
func TestChurnSummary(t *testing.T) {
	for _, pol := range []string{"full", "incr", "binom"} {
		o := churnBase()
		o.repairPolicy = pol
		out, err := capture(t, func() error { return run(o) })
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		for _, want := range []string{
			"churn:", "delivered:", "membership:", "grafts",
			"give-ups (repairs):", "policy:",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: missing %q in churn summary:\n%s", pol, want, out)
			}
		}
		again, err := capture(t, func() error { return run(o) })
		if err != nil {
			t.Fatal(err)
		}
		if again != out {
			t.Fatalf("%s: churn run not reproducible:\n--- first\n%s\n--- second\n%s", pol, out, again)
		}
	}
}

// TestChurnDegreeCap: the degree-bounded planner is selectable and
// announced in the report.
func TestChurnDegreeCap(t *testing.T) {
	o := churnBase()
	o.degreeCap = 3
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fan-out cap 3") {
		t.Fatalf("degree-bounded run missing the cap report:\n%s", out)
	}
}

// TestChurnVerbosePositions: -v lists every position with its
// membership state at quiesce.
func TestChurnVerbosePositions(t *testing.T) {
	o := churnBase()
	o.verbose = true
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "positions (node: cycle state):") || !strings.Contains(out, "member") {
		t.Fatalf("verbose churn output missing positions:\n%s", out)
	}
}

// TestChurnWithChannelFaults: channel fault flags compose with the
// churn schedule in one fault plan.
func TestChurnWithChannelFaults(t *testing.T) {
	o := churnBase()
	o.faults, o.faultSeed = 3, 2
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dead") || !strings.Contains(out, "node outages") {
		t.Fatalf("churn+faults run missing the combined plan summary:\n%s", out)
	}
}

// TestChurnCacheRoundTrip: a cached churn rerun prints the same stdout
// as the live run, -v positions included.
func TestChurnCacheRoundTrip(t *testing.T) {
	o := churnBase()
	o.verbose = true
	o.cacheDir = t.TempDir()
	live, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	cached, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if cached != live {
		t.Fatalf("cached churn rerun differs:\nlive:\n%s\ncached:\n%s", live, cached)
	}
}

// TestChurnCacheKeySeparatesPolicies: the repair policy is part of the
// cache identity; changing it must miss, not replay.
func TestChurnCacheKeySeparatesPolicies(t *testing.T) {
	o := churnBase()
	o.cacheDir = t.TempDir()
	o.churnRate = 3200 // hot enough that the policies actually diverge
	first, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	o.repairPolicy = "binom"
	second, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatal("different repair policies produced identical output through the cache")
	}
}

// TestChurnValidation: malformed churn flags fail with actionable
// errors instead of running.
func TestChurnValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		mut  func(*options)
		want string
	}{
		"bad policy":     {func(o *options) { o.repairPolicy = "magic" }, "unknown repair policy"},
		"negative rate":  {func(o *options) { o.churnRate = -1 }, "churn-rate"},
		"rejoin over 1":  {func(o *options) { o.rejoinFrac = 1.5 }, "-rejoin"},
		"negative cap":   {func(o *options) { o.degreeCap = -2 }, "degree-cap"},
		"bad algo":       {func(o *options) { o.algo = "magic" }, "unknown algorithm"},
		"pool overflows": {func(o *options) { o.k = 64 }, "joiner pool exceeds fabric"},
		"with traffic":   {func(o *options) { o.traffic = true; o.rate = 400; o.arrival, o.admission = "poisson", "fifo" }, "pick one"},
	} {
		o := churnBase()
		tc.mut(&o)
		_, err := capture(t, func() error { return run(o) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", name, err, tc.want)
		}
	}
}

// TestChurnHeatmap: -heatmap on a churn run prints the mesh heatmap of
// the measured run, as it does for a plain multicast.
func TestChurnHeatmap(t *testing.T) {
	o := churnBase()
	o.heatmap = true
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "link utilization heatmap") {
		t.Fatalf("churn run printed no heatmap:\n%s", out)
	}
}

// TestCacheEntryWithoutPayloadIsMiss: an entry holding only metrics and
// series, the shape older releases wrote, is a miss in every mode: the
// run prints its live output and rewrites the entry with a payload.
func TestCacheEntryWithoutPayloadIsMiss(t *testing.T) {
	recovered := base()
	recovered.faults, recovered.faultSeed, recovered.recover = 3, 2, true
	for _, o := range []options{base(), recovered, trafficBase(), churnBase()} {
		o.verbose = true
		o.cacheDir = t.TempDir()
		live, err := capture(t, func() error { return run(o) })
		if err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(o.cacheDir, "*", "*.json"))
		if err != nil || len(files) != 1 {
			t.Fatalf("want one cache entry, got %v (%v)", files, err)
		}
		buf, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]json.RawMessage
		if err := json.Unmarshal(buf, &e); err != nil {
			t.Fatal(err)
		}
		e["result"] = json.RawMessage(`{"metrics":{"latency":1,"cycles":1},"series":{"deliveries":[0]}}`)
		old, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(files[0], old, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := capture(t, func() error { return run(o) })
		if err != nil {
			t.Fatal(err)
		}
		if again != live {
			t.Fatalf("payload-less entry replayed:\nlive:\n%s\nrerun:\n%s", live, again)
		}
		if buf, err = os.ReadFile(files[0]); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(buf), `"payload"`) {
			t.Fatalf("entry not rewritten with a payload:\n%s", buf)
		}
	}
}
