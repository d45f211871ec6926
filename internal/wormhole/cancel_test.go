package wormhole_test

// Cancel is the recovery layer's withdrawal primitive: a timed-out worm
// is pulled from the fabric so a retransmit can never double-deliver.
// These tests pin its contract — channels released, waiters unblocked,
// frozen-fabric errors cleared — and prove both kernels observe a
// cancelled fabric identically.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
	. "repro/internal/wormhole"
)

// stepTo advances the network to exactly cycle t, using AdvanceTo when
// idle so the walk works on quiet fabrics too.
func stepTo(t *testing.T, n *Network, at int64) {
	t.Helper()
	for n.Now() < at {
		if n.Active() == 0 {
			n.AdvanceTo(at)
			return
		}
		n.StepUntil(at)
	}
}

// TestCancelReleasesEverything: cancelling a worm mid-flight must free
// every channel it holds, empty the active set, and count in
// Stats.Cancelled — leaving the fabric as if the send never happened.
func TestCancelReleasesEverything(t *testing.T) {
	n := newMeshNet(8, 1, DefaultConfig())
	w := n.Send(0, 7, 4096, nil, nil)
	stepTo(t, n, 40)
	if len(w.Path()) < 3 {
		t.Fatalf("worm holds only %d channels at cycle 40; scenario too weak", len(w.Path()))
	}
	n.Cancel(w)
	if n.Active() != 0 {
		t.Fatalf("Active() = %d after cancelling the only worm", n.Active())
	}
	if err := n.Quiesced(); err != nil {
		t.Fatalf("fabric not clean after Cancel: %v", err)
	}
	s := n.Stats()
	if s.Cancelled != 1 || s.Worms != 0 {
		t.Fatalf("stats after cancel: Cancelled=%d Worms=%d, want 1/0", s.Cancelled, s.Worms)
	}
}

// TestCancelUnblocksWaiter: a worm blocked behind the cancelled worm's
// channels must acquire them and complete once the holder is withdrawn.
func TestCancelUnblocksWaiter(t *testing.T) {
	n := newMeshNet(8, 1, DefaultConfig())
	hog := n.Send(0, 7, 1<<16, nil, nil) // long-lived: holds the row for many cycles
	stepTo(t, n, 100)                    // let the hog claim the whole row first
	var arrived bool
	blocked := n.Send(1, 7, 64, nil, func(*Worm, int64) { arrived = true })
	stepTo(t, n, 200)
	if blocked.BlockedCycles == 0 {
		t.Fatal("second worm never blocked behind the hog; scenario too weak")
	}
	n.Cancel(hog)
	if _, err := n.RunUntilIdle(1 << 20); err != nil {
		t.Fatal(err)
	}
	if !arrived || !blocked.Done() {
		t.Fatal("blocked worm did not complete after the holder was cancelled")
	}
	if err := n.Quiesced(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelReleasesOnlyTheLiveWindow: a blocked worm whose tail has
// already left the start of its path holds only the channels from its
// first unreleased one on. Cancel must release exactly those, in path
// order, at the cancel cycle, with one Release event each — on both
// kernels.
func TestCancelReleasesOnlyTheLiveWindow(t *testing.T) {
	for _, k := range []Kernel{KernelFast, KernelReference} {
		n := newMeshNet(8, 1, DefaultConfig())
		n.SetKernel(k)
		log := &eventLog{}
		n.SetObserver(log)
		n.Send(6, 7, 1<<12, nil, nil) // holds the last link for hundreds of cycles
		stepTo(t, n, 10)
		w := n.Send(0, 7, 16, nil, nil) // 3 flits compress behind it into two channels
		stepTo(t, n, 60)
		if w.BlockedCycles == 0 {
			t.Fatal("worm never blocked behind the hog; scenario too weak")
		}
		released := 0
		for _, e := range log.events {
			if strings.Contains(e, fmt.Sprintf(" rel w=%d ", w.ID)) {
				released++
			}
		}
		if released == 0 || released >= len(w.Path()) {
			t.Fatalf("kernel %d: %d of %d channels released before cancel; want a strict prefix", k, released, len(w.Path()))
		}
		before := len(log.events)
		n.Cancel(w)
		var want []string
		for _, c := range w.Path()[released:] {
			want = append(want, fmt.Sprintf("t=60 rel w=%d c=%d", w.ID, c))
		}
		if got := log.events[before:]; !reflect.DeepEqual(got, want) {
			t.Fatalf("kernel %d: Cancel events\n got %q\nwant %q", k, got, want)
		}
		checkWindows(t, n)
		if _, err := n.RunUntilIdle(1 << 20); err != nil {
			t.Fatal(err)
		}
		if err := n.Quiesced(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCancelKernelEquivalence: a scripted send/cancel/drain scenario must
// leave bit-identical observables on the fast and reference kernels —
// cancellation happens between steps, so cycle-skipping must neither miss
// it nor shift the survivors' timing.
func TestCancelKernelEquivalence(t *testing.T) {
	type outcome struct {
		arrivals []int64
		stats    Stats
		now      int64
	}
	run := func(k Kernel) outcome {
		n := newMeshNet(8, 8, DefaultConfig())
		n.SetKernel(k)
		var o outcome
		record := func(w *Worm, now int64) { o.arrivals = append(o.arrivals, w.ID, now) }
		hog := n.Send(0, 63, 1<<14, nil, record)
		n.Send(8, 63, 512, nil, record)
		n.Send(16, 63, 512, nil, record)
		stepTo(t, n, 150)
		n.Cancel(hog)
		if _, err := n.RunUntilIdle(1 << 20); err != nil {
			t.Fatal(err)
		}
		o.stats = n.Stats()
		o.now = n.Now()
		return o
	}
	fast, ref := run(KernelFast), run(KernelReference)
	if fast.now != ref.now || fast.stats != ref.stats {
		t.Fatalf("kernel divergence after cancel:\n fast %+v now=%d\n ref  %+v now=%d",
			fast.stats, fast.now, ref.stats, ref.now)
	}
	if len(fast.arrivals) != len(ref.arrivals) {
		t.Fatalf("arrival counts differ: %v vs %v", fast.arrivals, ref.arrivals)
	}
	for i := range fast.arrivals {
		if fast.arrivals[i] != ref.arrivals[i] {
			t.Fatalf("arrival records differ at %d: %v vs %v", i, fast.arrivals, ref.arrivals)
		}
	}
}

// TestCancelUnreachableClearsErr: a worm frozen with no live route is
// surfaced by Unreachable; cancelling the last frozen worm clears the
// fabric error so a recovery driver can keep running on the same net.
func TestCancelUnreachableClearsErr(t *testing.T) {
	m := mesh.New2D(8, 1)
	n := New(m, DefaultConfig())
	n.SetFaults(fault.MustPlan(m, fault.Spec{DeadFrac: 1, Seed: 3}))
	w := n.Send(0, 7, 256, nil, nil)
	for i := 0; i < 64 && n.Err() == nil; i++ {
		n.StepUntil(n.Now() + 16)
	}
	if n.Err() == nil {
		t.Fatal("fully-dead fabric produced no unreachable error")
	}
	frozen := n.Unreachable(nil)
	if len(frozen) != 1 || frozen[0] != w {
		t.Fatalf("Unreachable() = %v, want the single frozen worm", frozen)
	}
	n.Cancel(w)
	if n.Err() != nil {
		t.Fatalf("Err() still set after cancelling the only frozen worm: %v", n.Err())
	}
	if n.Active() != 0 {
		t.Fatalf("Active() = %d after cancel", n.Active())
	}
	if err := n.Quiesced(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelPanics: withdrawing a worm twice (or one the net never saw)
// is a driver bug and must panic loudly, not corrupt the active set.
func TestCancelPanics(t *testing.T) {
	n := newMeshNet(4, 1, DefaultConfig())
	w := n.Send(0, 3, 64, nil, nil)
	n.Cancel(w)
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s did not panic", name)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
				t.Fatalf("%s panic = %v, want substring %q", name, r, want)
			}
		}()
		f()
	}
	mustPanic("double cancel", "not in flight", func() { n.Cancel(w) })
	mustPanic("nil cancel", "nil or completed", func() { n.Cancel(nil) })
}

// TestErrTextSurvivesCancelAndReuse: Err's text is formatted on its
// first call from what markUnreachable recorded, so it must read the
// same whenever that call comes. Two worms freeze on a fully dead
// fabric. One run calls Err at once, the other only after the first
// frozen worm was cancelled and its struct reissued (recycling on) to a
// worm with another ID and endpoints while the second still holds the
// error. Both must name the first worm, byte for byte, and the error
// clears once no frozen worm is left.
func TestErrTextSurvivesCancelAndReuse(t *testing.T) {
	m := mesh.New2D(8, 1)
	run := func(early bool) string {
		n := New(m, DefaultConfig())
		n.SetRecycling(true)
		n.SetFaults(fault.MustPlan(m, fault.Spec{DeadFrac: 1, Seed: 3}))
		a := n.Send(0, 7, 256, nil, nil)
		b := n.Send(1, 7, 256, nil, nil)
		for i := 0; i < 64 && n.Frozen() < 2; i++ {
			n.StepUntil(n.Now() + 16)
		}
		if n.Frozen() != 2 {
			t.Fatalf("%d worms frozen, want 2", n.Frozen())
		}
		var text string
		if early {
			text = n.Err().Error()
		}
		n.Cancel(a)
		if c := n.Send(5, 2, 64, nil, nil); c != a {
			t.Fatal("the cancelled worm's struct was not reissued; the test needs recycling")
		}
		if !early {
			text = n.Err().Error()
		}
		n.Cancel(b)
		for i := 0; i < 64 && n.Frozen() == 0; i++ {
			n.StepUntil(n.Now() + 16)
		}
		n.Cancel(a)
		if n.Frozen() != 0 || n.Err() != nil {
			t.Fatalf("%d frozen, Err %v after cancelling every worm", n.Frozen(), n.Err())
		}
		return text
	}
	early, late := run(true), run(false)
	if early != late || !strings.Contains(early, "worm 0 (0->7) unreachable") {
		t.Fatalf("Err text depends on when it is read:\n early %q\n late  %q", early, late)
	}
}
