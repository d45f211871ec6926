package traffic

// White-box statistical properties of the arrival processes: the seeded
// Poisson stream's empirical mean gap must sit near 1/lambda, the bursty
// stream must respect its on/off duty cycle exactly, and both must be
// deterministic functions of the seed.

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestPoissonInterArrivalMean(t *testing.T) {
	const (
		rate = 150.0 // requests per Mcycle -> mean gap 1e6/150
		n    = 50000
	)
	spec := ArrivalSpec{Kind: ArrivalPoisson, RatePerMcycle: rate}
	arr := newArrival(spec, sim.NewRNG(42))
	prev := int64(0)
	var gaps sim.Stats
	for i := 0; i < n; i++ {
		at := arr.Next()
		if at <= prev {
			t.Fatalf("arrival %d not strictly increasing: %d after %d", i, at, prev)
		}
		gaps.Add(float64(at - prev))
		prev = at
	}
	want := 1e6 / rate
	if rel := math.Abs(gaps.Mean()-want) / want; rel > 0.02 {
		t.Fatalf("empirical mean gap %.1f deviates %.1f%% from 1/lambda=%.1f",
			gaps.Mean(), rel*100, want)
	}
	// An exponential's standard deviation equals its mean; a loose check
	// guards against accidentally generating uniform or constant gaps.
	if rel := math.Abs(gaps.StdDev()-want) / want; rel > 0.05 {
		t.Fatalf("gap stddev %.1f not exponential-like (want ~%.1f)", gaps.StdDev(), want)
	}
}

func TestBurstyDutyCycle(t *testing.T) {
	spec := ArrivalSpec{Kind: ArrivalBursty, RatePerMcycle: 400}
	arr := newArrival(spec, sim.NewRNG(9))
	const period = OnCycles + OffCycles
	prev := int64(0)
	var last int64
	const n = 20000
	for i := 0; i < n; i++ {
		at := arr.Next()
		if at <= prev {
			t.Fatalf("arrival %d not strictly increasing: %d after %d", i, at, prev)
		}
		if ph := at % period; ph >= OnCycles {
			t.Fatalf("arrival %d at cycle %d falls in an off-window (phase %d >= on %d)",
				i, at, ph, OnCycles)
		}
		prev = at
		last = at
	}
	// The long-run rate must still match the configured average within a
	// loose tolerance (window-boundary rounding compresses gaps a bit).
	got := float64(n) / float64(last) * 1e6
	if rel := math.Abs(got-spec.RatePerMcycle) / spec.RatePerMcycle; rel > 0.10 {
		t.Fatalf("long-run bursty rate %.1f/Mcycle deviates %.0f%% from configured %.1f",
			got, rel*100, spec.RatePerMcycle)
	}
}

func TestArrivalSeedDeterminism(t *testing.T) {
	for _, kind := range []string{ArrivalPoisson, ArrivalBursty} {
		spec := ArrivalSpec{Kind: kind, RatePerMcycle: 80}
		a := newArrival(spec, sim.NewRNG(123))
		b := newArrival(spec, sim.NewRNG(123))
		for i := 0; i < 1000; i++ {
			if x, y := a.Next(), b.Next(); x != y {
				t.Fatalf("%s: draw %d diverged under one seed: %d vs %d", kind, i, x, y)
			}
		}
	}
}

// TestExpGapFloor: a burst of tiny draws still strictly advances time.
func TestExpGapFloor(t *testing.T) {
	rng := sim.NewRNG(5)
	for i := 0; i < 100000; i++ {
		if g := expGap(rng, 0.01); g < 1 {
			t.Fatalf("gap %d < 1", g)
		}
	}
}

// TestDrawMembersDistinct: placements are k distinct in-range nodes even
// under extreme hot-spot pressure (hot set smaller than the group, where
// the rejection loop must fall back to the deterministic scan).
func TestDrawMembersDistinct(t *testing.T) {
	rng := sim.NewRNG(77)
	hot := []int{3, 4}
	set := newNodeSet(16)
	for trial := 0; trial < 500; trial++ {
		got := drawMembers(rng, 16, 8, hot, 0.95, set)
		if len(got) != 8 {
			t.Fatalf("trial %d: got %d members, want 8", trial, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= 16 {
				t.Fatalf("trial %d: member %d outside fabric", trial, v)
			}
			if seen[v] {
				t.Fatalf("trial %d: duplicate member %d in %v", trial, v, got)
			}
			seen[v] = true
		}
		for _, w := range set {
			if w != 0 {
				t.Fatalf("trial %d: draw left members marked in its node set", trial)
			}
		}
	}
}

// TestHotSpotSkew: with strong skew the hot set must absorb well more
// than its uniform share of destination draws.
func TestHotSpotSkew(t *testing.T) {
	const (
		nodes = 64
		k     = 8
	)
	rng := sim.NewRNG(31)
	hot := sim.NewRNG(99).Sample(nodes, 4)
	seen := newNodeSet(nodes)
	inHot := map[int]bool{}
	for _, h := range hot {
		inHot[h] = true
	}
	hotHits, draws := 0, 0
	for trial := 0; trial < 2000; trial++ {
		members := drawMembers(rng, nodes, k, hot, 0.8, seen)
		for _, v := range members[1:] { // destinations only; the source is uniform
			draws++
			if inHot[v] {
				hotHits++
			}
		}
	}
	// Uniform share would be 4/64 = 6.25%; with HotFrac 0.8 and only 4
	// hot nodes against k-1=7 distinct destinations the realized share
	// is bounded by rejection, but must still dominate the uniform rate.
	if frac := float64(hotHits) / float64(draws); frac < 0.3 {
		t.Fatalf("hot set drew only %.1f%% of destinations under 80%% skew", frac*100)
	}
}
