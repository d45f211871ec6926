package mcastsim_test

// Tests of the shared step-until-next-event loop every delivery layer
// runs on: event timing, idle fast-forward, the watchdog's stall clock,
// and error prefixes.

import (
	"strings"
	"testing"

	"repro/internal/core"
	. "repro/internal/mcastsim"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// quietMonitor watches nothing; it counts idle fast-forwards.
type quietMonitor struct{ idled int }

func (m *quietMonitor) Idled()       { m.idled++ }
func (m *quietMonitor) Check() error { return nil }

// TestDriveFiresEventsAtExactCycles: events scheduled while a worm is in
// flight fire at their exact cycles — StepUntil never overshoots the
// queue's next event — and an idle fabric jumps straight to the next
// event instead of stepping through the gap.
func TestDriveFiresEventsAtExactCycles(t *testing.T) {
	m := mesh.New2D(8, 8)
	net := wormhole.New(m, wormhole.DefaultConfig())
	var q sim.EventQueue
	type firing struct {
		at, now int64
		active  int
	}
	var got []firing
	at := func(c int64) {
		q.At(c, func() { got = append(got, firing{c, net.Now(), net.Active()}) })
	}
	q.At(0, func() { net.Send(0, 63, 4096, nil, nil) })
	for _, c := range []int64{7, 31, 250} {
		at(c)
	}
	const far = 1_000_000
	at(far)
	mon := &quietMonitor{}
	if _, err := Drive(net, &q, 2*far, mon); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("%d of 4 events fired", len(got))
	}
	for _, f := range got {
		if f.now != f.at {
			t.Fatalf("event due at %d fired at %d", f.at, f.now)
		}
	}
	for _, f := range got[:3] {
		if f.active == 0 {
			t.Fatalf("event at %d found the fabric idle; it was meant to fire mid-flight", f.at)
		}
	}
	if got[3].active != 0 {
		t.Fatalf("the worm was still in flight at cycle %d", far)
	}
	if c := net.Stats().Cycles; c >= far/10 {
		t.Fatalf("stepped %d cycles; the idle gap before cycle %d was not fast-forwarded", c, far)
	}
	if mon.idled == 0 {
		t.Fatal("Drive fast-forwarded without telling the monitor")
	}
}

// TestDriveIdledResetsStallClock: after an idle fast-forward the
// watchdog's stall clock restarts at the jump target. A worm that can
// never inject (its injection channel is stuck) must trip the watchdog
// one window after it was sent, not at once on the strength of the idle
// stretch before it.
func TestDriveIdledResetsStallClock(t *testing.T) {
	m := mesh.New2D(8, 8)
	const window, sendAt = 256, 50_000
	net := wormhole.New(m, wormhole.DefaultConfig())
	net.SetFaults(stuckChannel{c: m.InjectChannel(5)})
	var q sim.EventQueue
	q.At(sendAt, func() { net.Send(5, 60, 512, nil, nil) })
	_, err := Drive(net, &q, 10*sendAt, NewWatchdog(net, Config{NoProgressCycles: window}))
	if err == nil || !strings.Contains(err.Error(), "no flit moved") {
		t.Fatalf("want a no-progress trip, got %v", err)
	}
	if stalled := net.Now() - sendAt; stalled < window || stalled > 2*window {
		t.Fatalf("watchdog tripped %d cycles after the send, want about the %d-cycle window", stalled, window)
	}
}

// TestDriveErrorsCarryOnePrefix: Drive's own errors (a watchdog trip, a
// deadline overrun) carry no package prefix, so every caller's wrap
// names its package exactly once.
func TestDriveErrorsCarryOnePrefix(t *testing.T) {
	m := mesh.New2D(8, 8)
	ch, root := meshChain(m, []int{0, 63, 7, 56})
	path := wormhole.PathChannels(m, 0, 63)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"watchdog", Config{Software: testSoft, NoProgressCycles: 256}, "no flit moved"},
		{"deadline", Config{Software: testSoft, NoProgressCycles: -1, MaxCycles: 20000}, "not complete after 20000 cycles"},
	}
	for _, c := range cases {
		// Drive alone: no prefix at all.
		net := wormhole.New(m, wormhole.DefaultConfig())
		net.SetFaults(stuckChannel{c: path[len(path)/2]})
		var q sim.EventQueue
		q.At(0, func() { net.Send(0, 63, 1024, nil, nil) })
		limit := int64(1 << 20)
		if c.cfg.MaxCycles > 0 {
			limit = c.cfg.MaxCycles
		}
		_, err := Drive(net, &q, limit, NewWatchdog(net, c.cfg))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Drive returned %v, want %q", c.name, err, c.want)
		}
		if strings.Contains(err.Error(), "mcastsim:") {
			t.Fatalf("%s: Drive's error carries a package prefix: %v", c.name, err)
		}

		// Through Run: exactly one.
		net = wormhole.New(m, wormhole.DefaultConfig())
		net.SetFaults(stuckChannel{c: path[len(path)/2]})
		_, err = Run(net, core.BinomialTable{Max: len(ch)}, ch, root, 1024, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Run returned %v, want %q", c.name, err, c.want)
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "mcastsim: ") || strings.Count(msg, "mcastsim:") != 1 {
			t.Fatalf("%s: want the mcastsim prefix exactly once: %v", c.name, msg)
		}
	}
}
