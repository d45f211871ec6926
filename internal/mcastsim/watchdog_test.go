package mcastsim_test

// Watchdog tests: a faulted fabric must turn every failure mode into a
// prompt, diagnostic error — never a hang. Partitions surface as
// unreachable-destination errors; a channel that accepts nothing (without
// being declared dead, so routing keeps waiting on it) trips the
// no-progress watchdog, whose error names the stuck worm and the hottest
// blocked channel.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/fault"
	. "repro/internal/mcastsim"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// stuckChannel is a fault model with one channel that never accepts a
// flit yet is not reported dead: the router keeps offering it, the worm
// waits forever, and no flit in the fabric moves — the exact shape of a
// hardware hang the no-progress watchdog exists to catch. (A fault.Plan
// cannot express this: its down channels are either dead, degraded with
// a live duty cycle, or flaky with recovery windows.)
type stuckChannel struct{ c wormhole.ChannelID }

func (s stuckChannel) Dead(wormhole.ChannelID) bool          { return false }
func (s stuckChannel) Up(c wormhole.ChannelID, _ int64) bool { return c != s.c }

// TestWatchdogUnreachableSurfacesPromptly: a dead-link plan that strands
// a destination must abort the run with an error naming the worm's
// endpoints and carrying the deadlock report — well before the generous
// MaxCycles safety net.
func TestWatchdogUnreachableSurfacesPromptly(t *testing.T) {
	m := mesh.New2D(8, 8)
	addrs := placement(3, 64, 12)
	ch, root := meshChain(m, addrs)
	tab := core.BinomialTable{Max: 12}
	// Scan seeds for the first plan that strands this placement; the scan
	// is deterministic, so the failing seed is always the same.
	for seed := uint64(1); seed < 64; seed++ {
		net := wormhole.New(m, wormhole.DefaultConfig())
		net.SetFaults(fault.MustPlan(m, fault.Spec{DeadFrac: 0.06, Seed: seed}))
		_, err := Run(net, tab, ch, root, 1024, Config{Software: testSoft})
		if err == nil {
			continue
		}
		msg := err.Error()
		for _, want := range []string{"unreachable", "->", "worms in flight"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("seed %d: diagnostic lacks %q: %s", seed, want, msg)
			}
		}
		return
	}
	t.Fatal("no seed in [1,64) stranded the placement; partition coverage is vacuous")
}

// TestWatchdogNoProgress: with one silently-stuck channel on the tree's
// path, the run must fail after roughly the watchdog window with an error
// naming the symptom, a stuck worm, and the hottest blocked channel.
func TestWatchdogNoProgress(t *testing.T) {
	m := mesh.New2D(8, 8)
	addrs := []int{0, 63, 7, 56}
	ch, root := meshChain(m, addrs)
	tab := core.BinomialTable{Max: 4}

	// Stick a mid-path fabric channel on the root's route to node 63.
	path := wormhole.PathChannels(m, 0, 63)
	stuck := path[len(path)/2]

	net := wormhole.New(m, wormhole.DefaultConfig())
	net.SetFaults(stuckChannel{c: stuck})
	const window = 256
	_, err := Run(net, tab, ch, root, 1024, Config{Software: testSoft, NoProgressCycles: window})
	if err == nil {
		t.Fatal("run with a stuck channel completed")
	}
	msg := err.Error()
	for _, want := range []string{"no flit moved", "worms in flight", "hottest blocked channel"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("watchdog diagnostic lacks %q: %s", want, msg)
		}
	}
	// The report must point at fabric state, i.e. name at least one worm
	// blocked on a channel another worm holds, or waiting on the stuck
	// link — not merely restate the timeout.
	if !strings.Contains(msg, "worm") {
		t.Fatalf("watchdog diagnostic names no worm: %s", msg)
	}
}

// TestWatchdogDisabled: NoProgressCycles < 0 switches the no-progress
// watchdog off; the same stuck fabric then runs into MaxCycles instead,
// which still carries the deadlock report.
func TestWatchdogDisabled(t *testing.T) {
	m := mesh.New2D(8, 8)
	addrs := []int{0, 63, 7, 56}
	ch, root := meshChain(m, addrs)
	tab := core.BinomialTable{Max: 4}
	path := wormhole.PathChannels(m, 0, 63)

	net := wormhole.New(m, wormhole.DefaultConfig())
	net.SetFaults(stuckChannel{c: path[len(path)/2]})
	_, err := Run(net, tab, ch, root, 1024, Config{
		Software: testSoft, NoProgressCycles: -1, MaxCycles: 20000,
	})
	if err == nil {
		t.Fatal("run with a stuck channel completed")
	}
	if !strings.Contains(err.Error(), "not complete after 20000 cycles") {
		t.Fatalf("want the MaxCycles diagnostic, got: %v", err)
	}
	if !strings.Contains(err.Error(), "worms in flight") {
		t.Fatalf("MaxCycles diagnostic lacks the deadlock report: %v", err)
	}
}

// TestDefaultDeadlinePinned: with the watchdog off and MaxCycles 0, a
// stuck fabric runs into the default safety net, whose span the error
// reports. The spans are the ones Run and RunConcurrent gave before the
// four delivery layers shared mcastsim.SafetyNet.
func TestDefaultDeadlinePinned(t *testing.T) {
	m := mesh.New2D(8, 8)
	path := wormhole.PathChannels(m, 0, 63)
	stuck := stuckChannel{c: path[len(path)/2]}
	cfg := Config{Software: testSoft, NoProgressCycles: -1}
	runs := []struct {
		name string
		run  func(*wormhole.Network) error
		want int64
	}{
		{"Run k=4", func(net *wormhole.Network) error {
			ch, root := meshChain(m, []int{0, 63, 7, 56})
			_, err := Run(net, core.BinomialTable{Max: 4}, ch, root, 1024, cfg)
			return err
		}, 1099916},
		{"Run k=2 with addresses", func(net *wormhole.Network) error {
			_, err := Run(net, core.BinomialTable{Max: 2}, chain.Chain{0, 63}, 0, 64, Config{Software: testSoft, NoProgressCycles: -1, AddrBytes: 8})
			return err
		}, 1072780},
		{"RunConcurrent one group", func(net *wormhole.Network) error {
			_, err := RunConcurrent(net, []Group{{Tab: core.BinomialTable{Max: 2}, Chain: chain.Chain{0, 63}, Bytes: 1024}}, cfg)
			return err
		}, 1079380},
		{"RunConcurrent staggered groups with addresses", func(net *wormhole.Network) error {
			_, err := RunConcurrent(net, []Group{
				{Tab: core.BinomialTable{Max: 2}, Chain: chain.Chain{0, 63}, Bytes: 256},
				{Tab: core.BinomialTable{Max: 3}, Chain: chain.Chain{7, 56, 9}, Bytes: 512, StartAt: 300},
			}, Config{Software: testSoft, NoProgressCycles: -1, AddrBytes: 4})
			return err
		}, 1110748},
	}
	for _, r := range runs {
		net := wormhole.New(m, wormhole.DefaultConfig())
		net.SetFaults(stuck)
		err := r.run(net)
		if want := fmt.Sprintf("run not complete after %d cycles;", r.want); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", r.name, err, want)
		}
	}
}

// TestWatchdogConcurrent: the concurrent driver shares the watchdog — a
// stuck channel under one group must abort the whole batch with the same
// diagnostic shape.
func TestWatchdogConcurrent(t *testing.T) {
	m := mesh.New2D(8, 8)
	chA, rootA := meshChain(m, []int{0, 63, 7})
	chB, rootB := meshChain(m, []int{16, 47, 24})
	groups := []Group{
		{Tab: core.BinomialTable{Max: 3}, Chain: chA, Root: rootA, Bytes: 512},
		{Tab: core.BinomialTable{Max: 3}, Chain: chB, Root: rootB, Bytes: 512},
	}
	path := wormhole.PathChannels(m, 0, 63)

	net := wormhole.New(m, wormhole.DefaultConfig())
	net.SetFaults(stuckChannel{c: path[len(path)/2]})
	_, err := RunConcurrent(net, groups, Config{Software: testSoft, NoProgressCycles: 256})
	if err == nil {
		t.Fatal("concurrent batch with a stuck channel completed")
	}
	for _, want := range []string{"no flit moved", "hottest blocked channel"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("concurrent watchdog diagnostic lacks %q: %v", want, err)
		}
	}
}

// TestWatchdogQuietOnHealthyRuns: the watchdog must never misfire on a
// healthy multicast, even with the window forced down to its floor.
func TestWatchdogQuietOnHealthyRuns(t *testing.T) {
	m := mesh.New2D(8, 8)
	for seed := uint64(0); seed < 8; seed++ {
		ch, root := meshChain(m, placement(seed, 64, 16))
		net := wormhole.New(m, wormhole.DefaultConfig())
		_, err := Run(net, core.BinomialTable{Max: 16}, ch, root, 4096,
			Config{Software: testSoft, NoProgressCycles: 1})
		if err != nil {
			t.Fatalf("seed %d: watchdog misfired on a healthy run: %v", seed, err)
		}
	}
}

// TestDeadlockReportDeduplicatesConvoys: when a convoy of sends piles up
// behind one silent channel — a sequential tree keeps issuing from the
// root while the first worm is stuck — the watchdog report must collapse
// the identical waiters into one line with a count instead of one line
// per worm, so the diagnostic stays readable at scale.
func TestDeadlockReportDeduplicatesConvoys(t *testing.T) {
	m := mesh.New2D(8, 8)
	addrs := []int{0, 63, 62, 61, 60, 59, 58}
	ch, root := meshChain(m, addrs)
	tab := core.SequentialTable{Max: len(addrs)}

	// Stick the root's first fabric hop: the first send freezes there
	// holding the injection channel, and every later send queues behind it.
	path := wormhole.PathChannels(m, 0, 63)
	net := wormhole.New(m, wormhole.DefaultConfig())
	net.SetFaults(stuckChannel{c: path[1]})

	_, err := Run(net, tab, ch, root, 64, Config{Software: testSoft})
	if err == nil {
		t.Fatal("run with a stuck first hop completed")
	}
	msg := err.Error()
	if got := strings.Count(msg, "waiting to inject"); got != 1 {
		t.Fatalf("want one deduplicated waiting-to-inject line, got %d:\n%s", got, msg)
	}
	if !strings.Contains(msg, "more worms on this channel") {
		t.Fatalf("deduplicated line lacks the collapsed-worm count:\n%s", msg)
	}
	if !strings.Contains(msg, "hottest blocked channel") {
		t.Fatalf("report lost the hottest-channel summary:\n%s", msg)
	}
}

// deadLinks is a fault model whose only faults are dead channels, so the
// fabric stays ungated: worms stream and park as on a healthy one.
type deadLinks map[wormhole.ChannelID]bool

func (d deadLinks) Dead(c wormhole.ChannelID) bool        { return d[c] }
func (d deadLinks) Up(c wormhole.ChannelID, _ int64) bool { return !d[c] }
func (d deadLinks) OnlyDead() bool                        { return true }

// adaptiveDeadlock sends four 1 KB worms around the square of routers
// 0, 1, 5, 4 of a 4×4 mesh. Two dead links turn the minimal-adaptive
// detours of worms 1->4 and 4->1 Y-first, closing a cycle of waits with
// the X-first worms 0->5 and 5->0: each holds its first link and wants
// the next worm's. Extra driver events fire at the given cycles.
func adaptiveDeadlock(events ...int64) (*wormhole.Network, error) {
	m := mesh.New2D(4, 4)
	net := wormhole.New(m, wormhole.DefaultConfig())
	net.SetFaults(deadLinks{wormhole.PathChannels(m, 1, 0)[1]: true, wormhole.PathChannels(m, 4, 5)[1]: true})
	var q sim.EventQueue
	q.At(0, func() {
		for _, p := range [][2]wormhole.NodeID{{0, 5}, {1, 4}, {5, 0}, {4, 1}} {
			net.Send(p[0], p[1], 1024, nil, nil)
		}
	})
	for _, t := range events {
		q.At(t, func() {})
	}
	_, err := Drive(net, &q, 1<<20, NewWatchdog(net, Config{NoProgressCycles: 256}))
	return net, err
}

// TestWatchdogTripsPinned pins the cycle at which the no-progress
// watchdog trips and its full error text in the stuck-channel and
// stuck-injection scenarios of the watchdog and Drive tests, and on an
// adaptive-routing deadlock on an ungated dead-link mesh, with and
// without driver events while it lasts. The values are those of the
// watchdog that recomputed the flit-hop count after every StepUntil,
// when StepUntil returned after every cycle that made progress; the
// watchdog that reads the fabric's last-move cycle must match them.
func TestWatchdogTripsPinned(t *testing.T) {
	m := mesh.New2D(8, 8)
	path := wormhole.PathChannels(m, 0, 63)
	stuckNet := func(c wormhole.ChannelID) *wormhole.Network {
		net := wormhole.New(m, wormhole.DefaultConfig())
		net.SetFaults(stuckChannel{c: c})
		return net
	}
	cases := []struct {
		name string
		run  func() (*wormhole.Network, error)
		now  int64
		text string
	}{
		{"stuck-channel/run", func() (*wormhole.Network, error) {
			ch, root := meshChain(m, []int{0, 63, 7, 56})
			net := stuckNet(path[len(path)/2])
			_, err := Run(net, core.BinomialTable{Max: 4}, ch, root, 1024, Config{Software: testSoft, NoProgressCycles: 256})
			return net, err
		}, 1468, "mcastsim: no flit moved for 256 cycles (deadlocked or partitioned fabric); 1 worms in flight at cycle 1468\n" +
			"  worm 2 (7->63): header in flight toward link([7 0]->[7 1])\n" +
			"  hottest blocked channel: link([7 0]->[7 1]) (1 waiting headers)"},
		{"stuck-channel/drive", func() (*wormhole.Network, error) {
			net := stuckNet(path[len(path)/2])
			var q sim.EventQueue
			q.At(0, func() { net.Send(0, 63, 1024, nil, nil) })
			_, err := Drive(net, &q, 1<<20, NewWatchdog(net, Config{Software: testSoft, NoProgressCycles: 256}))
			return net, err
		}, 273, "no flit moved for 256 cycles (deadlocked or partitioned fabric); 1 worms in flight at cycle 273\n" +
			"  worm 0 (0->63): header in flight toward link([7 0]->[7 1])\n" +
			"  hottest blocked channel: link([7 0]->[7 1]) (1 waiting headers)"},
		{"stuck-channel/concurrent", func() (*wormhole.Network, error) {
			chA, rootA := meshChain(m, []int{0, 63, 7})
			chB, rootB := meshChain(m, []int{16, 47, 24})
			net := stuckNet(path[len(path)/2])
			_, err := RunConcurrent(net, []Group{
				{Tab: core.BinomialTable{Max: 3}, Chain: chA, Root: rootA, Bytes: 512},
				{Tab: core.BinomialTable{Max: 3}, Chain: chB, Root: rootB, Bytes: 512},
			}, Config{Software: testSoft, NoProgressCycles: 256})
			return net, err
		}, 881, "mcastsim: concurrent batch: no flit moved for 256 cycles (deadlocked or partitioned fabric); 2 worms in flight at cycle 881\n" +
			"  worm 0 (0->63): header in flight toward link([7 0]->[7 1])\n" +
			"  worm 2 (0->7): waiting to inject; inject([0 0]) held by worm 0\n" +
			"  hottest blocked channel: inject([0 0]) (1 waiting headers)"},
		{"stuck-injection/drive", func() (*wormhole.Network, error) {
			net := stuckNet(m.InjectChannel(5))
			var q sim.EventQueue
			q.At(50_000, func() { net.Send(5, 60, 512, nil, nil) })
			_, err := Drive(net, &q, 500_000, NewWatchdog(net, Config{NoProgressCycles: 256}))
			return net, err
		}, 50256, "no flit moved for 256 cycles (deadlocked or partitioned fabric); 1 worms in flight at cycle 50256\n" +
			"  worm 0 (5->60): header in flight toward inject([5 0])\n" +
			"  hottest blocked channel: inject([5 0]) (1 waiting headers)"},
		{"stuck-first-hop/run", func() (*wormhole.Network, error) {
			addrs := []int{0, 63, 62, 61, 60, 59, 58}
			ch, root := meshChain(m, addrs)
			net := stuckNet(path[1])
			_, err := Run(net, core.SequentialTable{Max: len(addrs)}, ch, root, 64, Config{Software: testSoft})
			return net, err
		}, 4309, "mcastsim: no flit moved for 4096 cycles (deadlocked or partitioned fabric); 6 worms in flight at cycle 4309\n" +
			"  worm 0 (0->63): header in flight toward link([0 0]->[1 0])\n" +
			"  worm 1 (0->62): waiting to inject; inject([0 0]) held by worm 0 (+4 more worms on this channel)\n" +
			"  hottest blocked channel: inject([0 0]) (5 waiting headers)"},
		{"adaptive-deadlock/deadline", func() (*wormhole.Network, error) { return adaptiveDeadlock() },
			1048577, "no flit moved for 1048572 cycles (deadlocked or partitioned fabric); 4 worms in flight at cycle 1048577\n" + deadlockLines},
		{"adaptive-deadlock/events", func() (*wormhole.Network, error) { return adaptiveDeadlock(200, 3000) },
			3000, "no flit moved for 2995 cycles (deadlocked or partitioned fabric); 4 worms in flight at cycle 3000\n" + deadlockLines},
	}
	for _, c := range cases {
		net, err := c.run()
		if err == nil {
			t.Fatalf("%s: run completed", c.name)
		}
		if net.Now() != c.now || err.Error() != c.text {
			t.Errorf("%s: tripped at cycle %d with\n%s\nwant cycle %d with\n%s", c.name, net.Now(), err, c.now, c.text)
		}
	}
}

// deadlockLines is the deadlock report of adaptiveDeadlock's cycle of
// waits.
const deadlockLines = "  worm 0 (0->5): blocked; wants link([1 0]->[1 1]) held by worm 1\n" +
	"  worm 1 (1->4): blocked; wants link([1 1]->[0 1]) held by worm 2\n" +
	"  worm 2 (5->0): blocked; wants link([0 1]->[0 0]) held by worm 3\n" +
	"  worm 3 (4->1): blocked; wants link([0 0]->[1 0]) held by worm 0\n" +
	"  hottest blocked channel: link([0 0]->[1 0]) (1 waiting headers)"
