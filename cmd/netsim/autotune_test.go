package main

// CLI battery for -autotune: flag validation, the static pick on
// single-shot and recovery runs, the live-switch demonstration under
// an injected fault plan, determinism, and cache behaviour.

import (
	"strings"
	"testing"
)

// autotuneTrafficDemo is the pinned live-switch demonstration: a
// 16x16 mesh serving k=32 multicasts under a 3% dead-link plan. The
// surface trains healthy and picks OPT; observed repair-inflated
// latencies then drift the crossover and the policy switches live.
func autotuneTrafficDemo() options {
	return options{
		topo: "mesh", w: 16, h: 16, nodes: 128, policy: "straight",
		algo: "opt", k: 32, bytes: 4096, seed: 1,
		faults: 3, faultSeed: 1,
		traffic: true, rate: 200, arrival: "poisson", admission: "fifo",
		autotune: true,
	}
}

func TestAutotuneHeatmapRejected(t *testing.T) {
	o := base()
	o.autotune, o.heatmap = true, true
	_, err := capture(t, func() error { return run(o) })
	if err == nil || !strings.Contains(err.Error(), "-heatmap") || !strings.Contains(err.Error(), "-autotune") {
		t.Fatalf("want a clear -autotune/-heatmap coupling error, got %v", err)
	}
}

func TestAutotuneChurnRejected(t *testing.T) {
	o := base()
	o.autotune, o.churn = true, true
	o.churnRate, o.rejoinFrac, o.repairPolicy = 400, 0.5, "incr"
	_, err := capture(t, func() error { return run(o) })
	if err == nil || !strings.Contains(err.Error(), "-autotune") || !strings.Contains(err.Error(), "-churn") {
		t.Fatalf("want a clear -autotune/-churn coupling error, got %v", err)
	}
}

// TestAutotunePlainPick: single-shot mode trains the surface, reports
// the per-candidate means and the pick, then runs the picked tree.
func TestAutotunePlainPick(t *testing.T) {
	o := base()
	o.autotune = true
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"training surface on the healthy fabric",
		"binomial", "opt-tree", "opt",
		"picks", "multicast latency:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	again, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if again != out {
		t.Fatalf("autotune rerun diverged:\nfirst:\n%s\nsecond:\n%s", out, again)
	}
}

// TestAutotuneRecoverSelects: with -recover the run plans with the
// policy's pick, and the recovery ladder still runs below it.
func TestAutotuneRecoverSelects(t *testing.T) {
	o := base()
	o.autotune, o.recover = true, true
	o.faults, o.faultSeed = 3, 2
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"picks", "completion latency:", "delivered:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestAutotuneLiveSwitchUnderFaults: the acceptance demo — under an
// injected fault plan the online policy must record at least one live
// algorithm switch, and the whole run must replay identically.
func TestAutotuneLiveSwitchUnderFaults(t *testing.T) {
	o := autotuneTrafficDemo()
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "live switches:") {
		t.Fatalf("no switch report in output:\n%s", out)
	}
	if strings.Contains(out, "live switches:       0 ") {
		t.Fatalf("demo configuration recorded no live switch:\n%s", out)
	}
	if !strings.Contains(out, " -> ") {
		t.Fatalf("switch log lines missing:\n%s", out)
	}
	if !strings.Contains(out, "recalibrated t_end:") || !strings.Contains(out, "drift:") {
		t.Fatalf("recalibration report missing:\n%s", out)
	}
	again, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if again != out {
		t.Fatalf("tuned traffic rerun diverged:\nfirst:\n%s\nsecond:\n%s", out, again)
	}
}

// TestAutotuneTrafficCacheRoundTrip: a cached tuned rerun replays the
// service metrics and the per-request selection counts exactly; only
// the live-policy diagnostics (switch log, drift) need a live run.
func TestAutotuneTrafficCacheRoundTrip(t *testing.T) {
	o := autotuneTrafficDemo()
	o.cacheDir = t.TempDir()
	live, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	cached, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	cut := func(s string) string {
		i := strings.Index(s, "live switches:")
		if i < 0 {
			return s
		}
		return s[:i]
	}
	if cut(cached) != cut(live) {
		t.Fatalf("cached tuned rerun differs before the live-only diagnostics:\nlive:\n%s\ncached:\n%s", live, cached)
	}
	if !strings.Contains(cached, "autotune selections:") {
		t.Fatalf("cached rerun lost the selection counts:\n%s", cached)
	}
	if strings.Contains(cached, "live switches:") {
		t.Fatalf("cached rerun fabricated live-policy diagnostics:\n%s", cached)
	}
}
