package mcastsim

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/wormhole"
)

// TestServedDriveEndsAtLastDeadline: a healthy Reliable request meets
// every deadline, and the drive still ends at the last of them, not at
// the last delivery: a met deadline is a no-op, but it is an event, and
// the drive runs until no event is left.
func TestServedDriveEndsAtLastDeadline(t *testing.T) {
	p := newServePlatform(t)
	net := wormhole.New(p.m, wormhole.DefaultConfig())
	var q sim.EventQueue
	e := NewEngine(net, &q, sim.NewRNG(3))
	ch, root := p.group(7, 32)
	var done int64 = -1
	var res ReliableResult
	e.Serve(0, p.tab, ch, root, p.bytes, p.reliable(), func(t int64, r ReliableResult) { done, res = t, r })
	if _, err := Drive(net, &q, 1<<30, e); err != nil {
		t.Fatal(err)
	}
	if res.Delivered != len(ch)-1 || res.Overhead.Retransmits != 0 {
		t.Fatalf("delivered %d of %d with %d retransmits; the pin needs every deadline met", res.Delivered, len(ch)-1, res.Overhead.Retransmits)
	}
	if want := [2]int64{2_043, 3_149}; [2]int64{done, net.Now()} != want {
		t.Fatalf("request done at %d, drive ends at %d; want %v", done, net.Now(), want)
	}
}

// TestDeadlineBeforeInjectPinned: with Slack*TEnd below t_send every
// deadline comes due before its send injects, so each send is declared
// lost before it reaches the fabric: nothing is delivered, no worm is
// cancelled, and each pair burns its whole retry budget. The final
// clock pins when the last deadline fires.
func TestDeadlineBeforeInjectPinned(t *testing.T) {
	p := newServePlatform(t)
	ch, root := p.group(7, 16)
	for _, c := range []struct {
		tEnd, end int64
	}{{1, 14_280}, {60, 14_287}} {
		cfg := p.reliable()
		cfg.TEnd = c.tEnd
		if tSend := cfg.Sim.Software.Send.At(p.bytes); Slack*c.tEnd >= tSend {
			t.Fatalf("Slack*TEnd = %d is not below t_send = %d", Slack*c.tEnd, tSend)
		}
		net := wormhole.New(p.m, wormhole.DefaultConfig())
		res, err := RunReliable(net, p.tab, ch, root, p.bytes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := res.Overhead
		if res.Delivered != 0 || o.Sends != 60 || o.Retransmits != 45 || o.Cancelled != 0 || net.Now() != c.end {
			t.Errorf("TEnd %d: delivered %d, sends %d, retransmits %d, cancelled %d, drive ends at %d; want 0, 60, 45, 0, %d",
				c.tEnd, res.Delivered, o.Sends, o.Retransmits, o.Cancelled, net.Now(), c.end)
		}
	}
}
