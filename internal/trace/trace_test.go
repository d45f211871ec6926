package trace_test

import (
	"strings"
	"testing"

	"repro/internal/mesh"
	. "repro/internal/trace"
	"repro/internal/wormhole"
)

func runWithObserver(t *testing.T, obs wormhole.Observer, sends [][2]int, bytes int) *wormhole.Network {
	t.Helper()
	m := mesh.New2D(8, 8)
	n := wormhole.New(m, wormhole.DefaultConfig())
	n.SetObserver(obs)
	for _, s := range sends {
		n.Send(wormhole.NodeID(s[0]), wormhole.NodeID(s[1]), bytes, nil, nil)
	}
	if _, err := n.RunUntilIdle(1 << 22); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestChannelUsageAccounting: busy time and acquire counts reflect one
// uncontended worm.
func TestChannelUsageAccounting(t *testing.T) {
	m := mesh.New2D(8, 8)
	u := NewChannelUsage(m)
	n := wormhole.New(m, wormhole.DefaultConfig())
	n.SetObserver(u)
	w := n.Send(0, 7, 800, nil, nil)
	if _, err := n.RunUntilIdle(1 << 20); err != nil {
		t.Fatal(err)
	}
	for _, c := range w.Path() {
		if u.Acquires(c) != 1 {
			t.Fatalf("channel %s acquired %d times", m.DescribeChannel(c), u.Acquires(c))
		}
		if u.BusyCycles(c) <= 0 {
			t.Fatalf("channel %s has zero busy time", m.DescribeChannel(c))
		}
		if u.BlockedOn(c) != 0 {
			t.Fatalf("uncontended channel %s reports blocking", m.DescribeChannel(c))
		}
	}
	// A channel off the path is untouched.
	off := m.LinkChannel(m.Addr(0, 7), 0, 1)
	if u.Acquires(off) != 0 || u.BusyCycles(off) != 0 {
		t.Fatal("off-path channel has activity")
	}
}

// TestChannelUsageHottest orders by busy time and Report renders it.
func TestChannelUsageHottest(t *testing.T) {
	m := mesh.New2D(8, 8)
	u := NewChannelUsage(m)
	runUsage := func() {
		n := wormhole.New(m, wormhole.DefaultConfig())
		n.SetObserver(u)
		n.Send(0, 7, 4000, nil, nil) // long worm across row 0
		n.Send(8, 15, 400, nil, nil) // short worm across row 1
		if _, err := n.RunUntilIdle(1 << 22); err != nil {
			t.Fatal(err)
		}
	}
	runUsage()
	hot := u.Hottest(3)
	if u.BusyCycles(hot[0]) < u.BusyCycles(hot[1]) || u.BusyCycles(hot[1]) < u.BusyCycles(hot[2]) {
		t.Fatal("Hottest not sorted by busy time")
	}
	rep := u.Report(5)
	if !strings.Contains(rep, "busy") || len(strings.Split(rep, "\n")) < 3 {
		t.Fatalf("report too small:\n%s", rep)
	}
}

// TestTimelineSpans: spans cover each message with sane bounds and the
// Gantt renderer marks blocked messages.
func TestTimelineSpans(t *testing.T) {
	tl := NewTimeline()
	// Two overlapping worms on the same row: the second blocks.
	runWithObserver(t, tl, [][2]int{{0, 7}, {2, 6}}, 2000)
	if len(tl.Spans) != 2 {
		t.Fatalf("%d spans", len(tl.Spans))
	}
	var blockedSeen bool
	for _, s := range tl.Spans {
		if s.Start >= s.End {
			t.Fatalf("span %+v inverted", s)
		}
		if s.BlockedCycles > 0 {
			blockedSeen = true
		}
	}
	if !blockedSeen {
		t.Fatal("expected one blocked span on the shared row")
	}
	g := tl.Gantt(40)
	if !strings.Contains(g, "=") || !strings.Contains(g, "!") {
		t.Fatalf("gantt missing bars or block marker:\n%s", g)
	}
}

func TestTimelineEmptyGantt(t *testing.T) {
	if g := NewTimeline().Gantt(40); !strings.Contains(g, "no messages") {
		t.Fatalf("empty gantt: %q", g)
	}
}

// TestMultiFansOut: both observers see the same events.
func TestMultiFansOut(t *testing.T) {
	m := mesh.New2D(8, 8)
	u1, u2 := NewChannelUsage(m), NewChannelUsage(m)
	n := wormhole.New(m, wormhole.DefaultConfig())
	n.SetObserver(Multi{u1, u2})
	w := n.Send(0, 63, 500, nil, nil)
	if _, err := n.RunUntilIdle(1 << 20); err != nil {
		t.Fatal(err)
	}
	for _, c := range w.Path() {
		if u1.BusyCycles(c) != u2.BusyCycles(c) {
			t.Fatal("observers diverged")
		}
	}
}

// TestMeshHeatmap renders a grid with hot cells on the traffic path.
func TestMeshHeatmap(t *testing.T) {
	m := mesh.New2D(8, 8)
	u := NewChannelUsage(m)
	n := wormhole.New(m, wormhole.DefaultConfig())
	n.SetObserver(u)
	n.Send(0, 7, 2000, nil, nil)
	if _, err := n.RunUntilIdle(1 << 21); err != nil {
		t.Fatal(err)
	}
	hm := MeshHeatmap(m, u)
	if !strings.Contains(hm, "9") {
		t.Fatalf("no hot cell rendered:\n%s", hm)
	}
	if !strings.Contains(hm, ".") {
		t.Fatalf("no idle cell rendered:\n%s", hm)
	}
	lines := strings.Split(strings.TrimSpace(hm), "\n")
	if len(lines) != 9 { // header + 8 rows
		t.Fatalf("heatmap has %d lines:\n%s", len(lines), hm)
	}
}

// TestMeshHeatmapNon2D degrades gracefully.
func TestMeshHeatmapNon2D(t *testing.T) {
	m := mesh.New(4, 4, 4)
	u := NewChannelUsage(m)
	if hm := MeshHeatmap(m, u); !strings.Contains(hm, "requires a 2-D mesh") {
		t.Fatalf("unexpected: %q", hm)
	}
}

// TestObserverDoesNotPerturbSimulation: results with and without an
// observer are identical.
func TestObserverDoesNotPerturbSimulation(t *testing.T) {
	run := func(obs wormhole.Observer) []int64 {
		m := mesh.New2D(8, 8)
		n := wormhole.New(m, wormhole.DefaultConfig())
		if obs != nil {
			n.SetObserver(obs)
		}
		var worms []*wormhole.Worm
		for i := 0; i < 12; i++ {
			worms = append(worms, n.Send(wormhole.NodeID(i), wormhole.NodeID(63-i), 900, nil, nil))
		}
		if _, err := n.RunUntilIdle(1 << 22); err != nil {
			t.Fatal(err)
		}
		var out []int64
		for _, w := range worms {
			out = append(out, w.ArrivedAt, w.BlockedCycles)
		}
		return out
	}
	a := run(nil)
	b := run(Multi{NewChannelUsage(mesh.New2D(8, 8)), NewTimeline()})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("observer perturbed the simulation")
		}
	}
}
