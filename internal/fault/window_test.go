package fault

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/wormhole"
)

// TestNodeOutageWindowBoundaries pins the half-open [From, To) contract
// at the exact edges on both incident channels: the first down cycle is
// From, the last is To-1, and To is already up — both channels
// atomically.
func TestNodeOutageWindowBoundaries(t *testing.T) {
	topo := mesh.New2D(4, 4)
	const node, from, to = 5, 100, 200
	p := MustPlan(topo, Spec{NodeOutages: []NodeOutage{{Node: node, From: from, To: to}}})
	inj := topo.InjectChannel(wormhole.NodeID(node))
	ej := topo.EjectChannel(wormhole.NodeID(node))
	for _, e := range []struct {
		now  int64
		want bool
	}{
		{from - 1, true}, // last cycle before the outage
		{from, false},    // first down cycle
		{to - 1, false},  // last down cycle
		{to, true},       // half-open: recovery cycle is already up
	} {
		for _, c := range []wormhole.ChannelID{inj, ej} {
			if got := p.Up(c, e.now); got != e.want {
				t.Fatalf("channel %s: Up(%d) = %v, want %v", topo.DescribeChannel(c), e.now, got, e.want)
			}
		}
	}
	// Other nodes' channels are untouched.
	other := wormhole.NodeID(7)
	if !p.Up(topo.InjectChannel(other), from) || !p.Up(topo.EjectChannel(other), from) {
		t.Fatal("outage leaked onto another node's channels")
	}
	// Outages never promote a channel to Dead: the routing layer still
	// plans through a down node, and only the Up verdict refuses flits.
	if p.Dead(inj) || p.Dead(ej) || p.ClassOf(inj) != Healthy {
		t.Fatal("node outage changed Dead/ClassOf — outages must act only through Up")
	}
}

// TestNodeOutageForever: To == Forever is a crash with no recovery.
func TestNodeOutageForever(t *testing.T) {
	topo := mesh.New2D(4, 4)
	p := MustPlan(topo, Spec{NodeOutages: []NodeOutage{{Node: 3, From: 50, To: Forever}}})
	inj := topo.InjectChannel(3)
	for _, now := range []int64{50, 1 << 40, Forever - 1} {
		if p.Up(inj, now) {
			t.Fatalf("Up(%d) = true inside a Forever outage", now)
		}
	}
	if !p.Up(inj, 49) {
		t.Fatal("Forever outage leaked before its start")
	}
}

// TestChannelWindowBoundaries: explicit windows may target any channel
// (including normally protected inject/eject) and obey the same
// half-open edges.
func TestChannelWindowBoundaries(t *testing.T) {
	topo := mesh.New2D(4, 4)
	c := topo.InjectChannel(0) // protected from drawn faults, but windowable
	p := MustPlan(topo, Spec{Windows: []ChannelWindow{{Channel: c, From: 10, To: 20}, {Channel: c, From: 20, To: 25}}})
	for _, e := range []struct {
		now  int64
		want bool
	}{
		{9, true},
		{10, false},
		{19, false}, // first window's last down cycle
		{20, false}, // second window abuts exactly — no gap, no overlap
		{24, false},
		{25, true},
	} {
		if got := p.Up(c, e.now); got != e.want {
			t.Fatalf("Up(%d) = %v, want %v", e.now, got, e.want)
		}
	}
}

// TestWindowValidation: every malformed schedule is rejected at plan
// build time with a descriptive error, not last-writer-wins at inject.
func TestWindowValidation(t *testing.T) {
	topo := mesh.New2D(4, 4)
	inj0 := topo.InjectChannel(0)
	for _, tc := range []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"node out of range high", Spec{NodeOutages: []NodeOutage{{Node: 16, From: 0, To: 10}}}, "outside fabric"},
		{"node out of range negative", Spec{NodeOutages: []NodeOutage{{Node: -1, From: 0, To: 10}}}, "outside fabric"},
		{"channel out of range high", Spec{Windows: []ChannelWindow{{Channel: wormhole.ChannelID(topo.NumChannels()), From: 0, To: 10}}}, "outside fabric"},
		{"channel out of range negative", Spec{Windows: []ChannelWindow{{Channel: -1, From: 0, To: 10}}}, "outside fabric"},
		{"negative start", Spec{NodeOutages: []NodeOutage{{Node: 1, From: -5, To: 10}}}, "< 0"},
		{"empty window", Spec{NodeOutages: []NodeOutage{{Node: 1, From: 10, To: 10}}}, "empty or inverted"},
		{"inverted window", Spec{Windows: []ChannelWindow{{Channel: inj0, From: 20, To: 10}}}, "empty or inverted"},
		{"overlapping outages same node", Spec{NodeOutages: []NodeOutage{
			{Node: 2, From: 0, To: 100}, {Node: 2, From: 99, To: 200}}}, "overlapping outages for node 2"},
		{"overlapping windows same channel", Spec{Windows: []ChannelWindow{
			{Channel: inj0, From: 0, To: 50}, {Channel: inj0, From: 49, To: 80}}}, "overlapping windows on channel"},
		{"explicit window collides with outage", Spec{
			NodeOutages: []NodeOutage{{Node: 0, From: 0, To: 50}},
			Windows:     []ChannelWindow{{Channel: inj0, From: 25, To: 60}},
		}, "overlapping windows on channel"},
	} {
		_, err := NewPlan(topo, tc.spec)
		if err == nil {
			t.Errorf("%s: invalid schedule accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Legal edge cases must be accepted: abutting windows ([a,b)+[b,c)),
	// same-node outages that touch exactly, and windows on distinct
	// channels at the same cycles.
	for name, spec := range map[string]Spec{
		"abutting outages":  {NodeOutages: []NodeOutage{{Node: 2, From: 0, To: 100}, {Node: 2, From: 100, To: 200}}},
		"distinct nodes":    {NodeOutages: []NodeOutage{{Node: 2, From: 0, To: 100}, {Node: 3, From: 0, To: 100}}},
		"distinct channels": {Windows: []ChannelWindow{{Channel: inj0, From: 0, To: 50}, {Channel: topo.InjectChannel(1), From: 0, To: 50}}},
	} {
		if _, err := NewPlan(topo, spec); err != nil {
			t.Errorf("%s: valid schedule rejected: %v", name, err)
		}
	}
}

// TestOutagesDoNotPerturbDraws: adding scheduled outages to a spec must
// not shift the seeded channel-class draws — outages are scheduled
// after the RNG consumption, so old specs extended with churn keep
// byte-identical fault assignments.
func TestOutagesDoNotPerturbDraws(t *testing.T) {
	topo := mesh.New2D(8, 8)
	base := Spec{DeadFrac: 0.05, DegradedFrac: 0.1, FlakyFrac: 0.1, Seed: 42}
	withOut := base
	withOut.NodeOutages = []NodeOutage{{Node: 4, From: 10, To: 90}}
	a, b := MustPlan(topo, base), MustPlan(topo, withOut)
	if !reflect.DeepEqual(a.class, b.class) || !reflect.DeepEqual(a.phase, b.phase) {
		t.Fatal("adding node outages perturbed the seeded class/phase draws")
	}
}

// TestWindowOnFaultedChannel: a window composes with a drawn class — the
// channel is down inside the window regardless of its duty cycle, and
// behaves per its class outside.
func TestWindowOnFaultedChannel(t *testing.T) {
	topo := mesh.New2D(8, 8)
	base := MustPlan(topo, Spec{DegradedFrac: 0.2, Seed: 7})
	var target wormhole.ChannelID = -1
	for c := 0; c < topo.NumChannels(); c++ {
		if base.ClassOf(wormhole.ChannelID(c)) == Degraded {
			target = wormhole.ChannelID(c)
			break
		}
	}
	if target < 0 {
		t.Fatal("no degraded channel drawn; test is vacuous")
	}
	p := MustPlan(topo, Spec{DegradedFrac: 0.2, Seed: 7,
		Windows: []ChannelWindow{{Channel: target, From: 0, To: 64}}})
	for now := int64(0); now < 64; now++ {
		if p.Up(target, now) {
			t.Fatalf("degraded channel served inside its window at cycle %d", now)
		}
	}
	for now := int64(64); now < 128; now++ {
		if p.Up(target, now) != base.Up(target, now) {
			t.Fatalf("outside the window, Up(%d) diverged from the pure class verdict", now)
		}
	}
}
