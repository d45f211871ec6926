package fault

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bfly"
	"repro/internal/bmin"
	"repro/internal/mesh"
	"repro/internal/torus"
	"repro/internal/wormhole"
)

func topologies() []struct {
	name string
	topo wormhole.Topology
} {
	return []struct {
		name string
		topo wormhole.Topology
	}{
		{"mesh8x8", mesh.New2D(8, 8)},
		{"torus8x8", torus.New2D(8, 8)},
		{"bmin64", bmin.New(64, bmin.AscentStraight)},
		{"bfly64", bfly.New(64)},
	}
}

func TestPlanDeterministic(t *testing.T) {
	spec := Spec{DeadFrac: 0.05, DegradedFrac: 0.1, FlakyFrac: 0.1, Seed: 42}
	for _, tc := range topologies() {
		a := MustPlan(tc.topo, spec)
		b := MustPlan(tc.topo, spec)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same (topology, spec) produced different plans", tc.name)
		}
		c := MustPlan(tc.topo, Spec{DeadFrac: 0.05, DegradedFrac: 0.1, FlakyFrac: 0.1, Seed: 43})
		if reflect.DeepEqual(a.class, c.class) {
			t.Errorf("%s: different seeds produced identical channel assignments", tc.name)
		}
	}
}

func TestInjectEjectNeverFaulted(t *testing.T) {
	// Even a 100% fault load must leave every node's way in and out of
	// the fabric healthy.
	spec := Spec{DeadFrac: 0.4, DegradedFrac: 0.3, FlakyFrac: 0.3, Seed: 9}
	for _, tc := range topologies() {
		p := MustPlan(tc.topo, spec)
		for i := 0; i < tc.topo.NumNodes(); i++ {
			node := wormhole.NodeID(i)
			for _, c := range []wormhole.ChannelID{tc.topo.InjectChannel(node), tc.topo.EjectChannel(node)} {
				if p.ClassOf(c) != Healthy {
					t.Fatalf("%s: protected channel %s got class %d",
						tc.name, tc.topo.DescribeChannel(c), p.ClassOf(c))
				}
			}
		}
		if p.Eligible() != tc.topo.NumChannels()-2*tc.topo.NumNodes() {
			t.Errorf("%s: eligible %d, want fabric-internal count %d",
				tc.name, p.Eligible(), tc.topo.NumChannels()-2*tc.topo.NumNodes())
		}
	}
}

func TestFractionRounding(t *testing.T) {
	topo := mesh.New2D(8, 8)
	p := MustPlan(topo, Spec{DeadFrac: 0.1, DegradedFrac: 0.2, FlakyFrac: 0.05, Seed: 1})
	n := p.Eligible()
	want := func(frac float64) int { return int(frac*float64(n) + 0.5) }
	if got := p.DeadCount(); got != want(0.1) {
		t.Errorf("dead count %d, want %d of %d", got, want(0.1), n)
	}
	if got := p.FaultedCount(); got != want(0.1)+want(0.2)+want(0.05) {
		t.Errorf("faulted count %d, want %d", got, want(0.1)+want(0.2)+want(0.05))
	}
	// Rounding overshoot: three fractions that each round up must still
	// fit within the fabric.
	full := MustPlan(topo, Spec{DeadFrac: 0.333, DegradedFrac: 0.333, FlakyFrac: 0.333, Seed: 2})
	if full.FaultedCount() > full.Eligible() {
		t.Errorf("faulted %d exceeds eligible %d", full.FaultedCount(), full.Eligible())
	}
}

func TestUpDutyCycles(t *testing.T) {
	topo := mesh.New2D(8, 8)
	p := MustPlan(topo, Spec{DeadFrac: 0.05, DegradedFrac: 0.1, FlakyFrac: 0.1, Seed: 3})
	counted := [4]int{}
	for c := 0; c < topo.NumChannels(); c++ {
		cid := wormhole.ChannelID(c)
		up := 0
		for now := int64(0); now < 128; now++ {
			if p.Up(cid, now) {
				up++
			}
		}
		switch cl := p.ClassOf(cid); cl {
		case Healthy:
			if up != 128 {
				t.Fatalf("healthy channel %d up %d/128", c, up)
			}
		case Dead:
			if up != 0 {
				t.Fatalf("dead channel %d up %d/128", c, up)
			}
			if !p.Dead(cid) {
				t.Fatalf("dead channel %d not reported by Dead()", c)
			}
		case Degraded:
			if up != 128/DegradedPeriod {
				t.Fatalf("degraded channel %d up %d/128, want %d", c, up, 128/DegradedPeriod)
			}
		case Flaky:
			if want := 128 * (FlakyPeriod - FlakyDown) / FlakyPeriod; up != want {
				t.Fatalf("flaky channel %d up %d/128, want %d", c, up, want)
			}
		default:
			t.Fatalf("unknown class %d", cl)
		}
		counted[p.ClassOf(cid)]++
	}
	if counted[Dead] == 0 || counted[Degraded] == 0 || counted[Flaky] == 0 {
		t.Fatalf("plan missing a class: %v", counted)
	}
	// Dead() must be false for every non-dead class.
	for c := 0; c < topo.NumChannels(); c++ {
		cid := wormhole.ChannelID(c)
		if p.ClassOf(cid) != Dead && p.Dead(cid) {
			t.Fatalf("non-dead channel %d reported dead", c)
		}
	}
}

func TestPhasesDesynchronized(t *testing.T) {
	// With enough degraded channels, at least two must pulse on different
	// cycles — lockstep duty cycles would synchronize contention
	// artificially.
	topo := mesh.New2D(8, 8)
	p := MustPlan(topo, Spec{DegradedFrac: 0.3, Seed: 4})
	phases := map[int64]bool{}
	for c := 0; c < topo.NumChannels(); c++ {
		if p.ClassOf(wormhole.ChannelID(c)) == Degraded {
			phases[p.phase[c]] = true
		}
	}
	if len(phases) < 2 {
		t.Fatalf("all %d degraded channels share a phase", p.counts[Degraded])
	}
}

func TestSpecValidation(t *testing.T) {
	topo := mesh.New2D(4, 4)
	for name, spec := range map[string]Spec{
		"negative dead": {DeadFrac: -0.1},
		"dead over one": {DeadFrac: 1.5},
		"sum over one":  {DeadFrac: 0.5, DegradedFrac: 0.4, FlakyFrac: 0.2},
		"NaN dead":      {DeadFrac: math.NaN()},
		"NaN degraded":  {DegradedFrac: math.NaN()},
		"NaN flaky":     {FlakyFrac: math.NaN()},
	} {
		if _, err := NewPlan(topo, spec); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
	if _, err := NewPlan(topo, Spec{DeadFrac: 0.1, Seed: 1}); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustPlan did not panic on an invalid spec")
		}
	}()
	MustPlan(topo, Spec{DeadFrac: 2})
}

// TestOnlyDead pins which plans report that their only faults are dead
// channels, the verdict under which the wormhole fast kernel streams
// worms without consulting Up: the empty and dead-only plans do, and any
// degraded or flaky channel, node outage or explicit window does not.
// Under every plan that does, Up must hold on every cycle for every
// channel that is not dead.
func TestOnlyDead(t *testing.T) {
	topo := mesh.New2D(8, 8)
	for _, tc := range []struct {
		name string
		spec Spec
		want bool
	}{
		{"healthy", Spec{}, true},
		{"dead", Spec{DeadFrac: 0.06, Seed: 1}, true},
		{"degraded", Spec{DegradedFrac: 0.05, Seed: 1}, false},
		{"flaky", Spec{FlakyFrac: 0.05, Seed: 1}, false},
		{"dead and flaky", Spec{DeadFrac: 0.06, FlakyFrac: 0.05, Seed: 1}, false},
		{"node outage", Spec{NodeOutages: []NodeOutage{{Node: 3, From: 10, To: 20}}}, false},
		{"window", Spec{Windows: []ChannelWindow{{Channel: 0, From: 0, To: Forever}}}, false},
	} {
		p := MustPlan(topo, tc.spec)
		if got := p.OnlyDead(); got != tc.want {
			t.Errorf("%s: OnlyDead() = %v, want %v (%s)", tc.name, got, tc.want, p)
		}
		if !tc.want {
			continue
		}
		for c := 0; c < topo.NumChannels(); c++ {
			cid := wormhole.ChannelID(c)
			for now := int64(0); now < 128; now++ {
				if up := p.Up(cid, now); up == p.Dead(cid) {
					t.Fatalf("%s: channel %d Up(%d) = %v, Dead = %v", tc.name, c, now, up, p.Dead(cid))
				}
			}
		}
	}
}

// TestFlakyWindowBoundaries pins the half-open window semantics from
// the package comment at the exact edges: with local time tl =
// (now+phase) mod FlakyPeriod, the first down cycle is tl == 0, the
// last is tl == FlakyDown-1, and tl == FlakyDown is already up — so a
// period holds exactly FlakyDown down cycles, contiguous modulo the
// period, with exactly two up-transitions of the Up predicate.
func TestFlakyWindowBoundaries(t *testing.T) {
	const period, down = FlakyPeriod, FlakyDown
	topo := mesh.New2D(8, 8)
	p := MustPlan(topo, Spec{FlakyFrac: 0.2, Seed: 6})
	checked := 0
	for c := 0; c < topo.NumChannels(); c++ {
		cid := wormhole.ChannelID(c)
		if p.ClassOf(cid) != Flaky {
			continue
		}
		checked++
		phase := p.phase[cid]
		// Edge cycles, expressed in absolute time so the test exercises
		// Up() exactly as the simulator does. 2*period keeps now+phase
		// non-negative for any phase in [0, period).
		at := func(tl int64) int64 { return 2*period + tl - phase }
		for _, e := range []struct {
			tl   int64
			want bool
		}{
			{0, false},            // first cycle of the window: down
			{down - 1, false},     // last down cycle
			{down, true},          // window edge: half-open, already up
			{period - 1, true},    // last cycle of the period: up
			{period, false},       // wraps: next period's first down cycle
			{period + down, true}, // and its first up cycle
		} {
			if got := p.Up(cid, at(e.tl)); got != e.want {
				t.Fatalf("channel %d (phase %d): Up at local time %d = %v, want %v",
					c, phase, e.tl, got, e.want)
			}
		}
		// Window shape over one full period: exactly `down` down cycles,
		// contiguous modulo the period, and exactly two Up-flips.
		downCount, flips := 0, 0
		prev := p.Up(cid, at(period-1))
		for tl := int64(0); tl < period; tl++ {
			up := p.Up(cid, at(tl))
			if !up {
				downCount++
			}
			if up != prev {
				flips++
			}
			prev = up
		}
		if downCount != down {
			t.Fatalf("channel %d: %d down cycles per period, want %d", c, downCount, down)
		}
		if flips != 2 {
			t.Fatalf("channel %d: %d Up-transitions per period, want 2 (one contiguous outage)", c, flips)
		}
	}
	if checked == 0 {
		t.Fatal("no flaky channels drawn; boundary test is vacuous")
	}
}

// TestConcurrentReads exercises the immutability contract under the race
// detector: one Plan shared by many goroutines reading Dead/Up/ClassOf
// concurrently, as parallel sweep workers do.
func TestConcurrentReads(t *testing.T) {
	topo := mesh.New2D(8, 8)
	p := MustPlan(topo, Spec{DeadFrac: 0.05, DegradedFrac: 0.1, FlakyFrac: 0.1, Seed: 5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := 0; c < topo.NumChannels(); c++ {
				cid := wormhole.ChannelID(c)
				_ = p.Dead(cid)
				_ = p.ClassOf(cid)
				for now := int64(g); now < int64(g)+64; now++ {
					_ = p.Up(cid, now)
				}
			}
		}(g)
	}
	wg.Wait()
}
