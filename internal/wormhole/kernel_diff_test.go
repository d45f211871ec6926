package wormhole_test

// Differential harness for the scheduling kernels: random seeded
// workloads on all four fabric families run through KernelFast and
// KernelReference, asserting bit-identical statistics, per-worm timings
// and observer event streams. This is the proof obligation that lets the
// stall-aware kernel skip cycles at all.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bfly"
	"repro/internal/bmin"
	"repro/internal/mesh"
	"repro/internal/torus"
	. "repro/internal/wormhole"
)

// timedSend is one workload element: inject a worm at cycle at.
type timedSend struct {
	at       int64
	src, dst NodeID
	bytes    int
}

// eventLog records the complete fabric event stream as formatted strings,
// so two runs can be compared event-for-event. IDs are captured at event
// time, which also makes the log safe under worm recycling.
type eventLog struct{ events []string }

func (l *eventLog) Acquire(now int64, w *Worm, c ChannelID) {
	l.events = append(l.events, fmt.Sprintf("t=%d acq w=%d c=%d", now, w.ID, c))
}

func (l *eventLog) Release(now int64, w *Worm, c ChannelID) {
	l.events = append(l.events, fmt.Sprintf("t=%d rel w=%d c=%d", now, w.ID, c))
}

func (l *eventLog) Blocked(now int64, w *Worm, c ChannelID, holder *Worm) {
	l.events = append(l.events, fmt.Sprintf("t=%d blk w=%d c=%d hold=%d", now, w.ID, c, holder.ID))
}

func (l *eventLog) Complete(now int64, w *Worm) {
	l.events = append(l.events, fmt.Sprintf("t=%d cpl w=%d", now, w.ID))
}

// wormRecord snapshots everything observable about one completed worm.
type wormRecord struct {
	ID                    int64
	Src, Dst              NodeID
	Bytes, Flits, PathLen int
	InjectedAt, ArrivedAt int64
	Blocked, InjectWait   int64
}

// runSnapshot is the full observable outcome of a workload execution.
type runSnapshot struct {
	Stats  Stats
	Now    int64
	Worms  []wormRecord
	Events []string
}

// randWorkload draws a seeded send sequence mixing same-cycle bursts,
// tight pacing, and long software-style gaps (which exercise both
// AdvanceTo and StepUntil's cycle-skipping).
func randWorkload(r *rand.Rand, nodes, count int) []timedSend {
	sends := make([]timedSend, 0, count)
	at := int64(0)
	for i := 0; i < count; i++ {
		switch r.Intn(4) {
		case 0: // burst: same cycle as the previous send
		case 1:
			at += int64(r.Intn(5))
		case 2:
			at += int64(r.Intn(60))
		case 3:
			at += int64(r.Intn(3000))
		}
		src := NodeID(r.Intn(nodes))
		dst := NodeID(r.Intn(nodes))
		for dst == src {
			dst = NodeID(r.Intn(nodes))
		}
		sends = append(sends, timedSend{at: at, src: src, dst: dst, bytes: r.Intn(200)})
	}
	return sends
}

// recordWorm snapshots everything observable about a completed worm.
func recordWorm(w *Worm) wormRecord {
	return wormRecord{
		ID: w.ID, Src: w.Src, Dst: w.Dst,
		Bytes: w.Bytes, Flits: w.Flits(), PathLen: len(w.Path()),
		InjectedAt: w.InjectedAt, ArrivedAt: w.ArrivedAt,
		Blocked: w.BlockedCycles, InjectWait: w.InjectWaitCycles,
	}
}

// checkWindows fails the test if any in-flight worm's live window (its
// first unreleased channel onward) or the owned-channel count disagrees
// with the owner table.
func checkWindows(t *testing.T, n *Network) {
	t.Helper()
	if err := n.CheckLiveWindows(); err != nil {
		t.Fatalf("cycle %d: %v", n.Now(), err)
	}
}

// drainLimit bounds the final drain of a workload, as RunUntilIdle's
// maxCycles would.
const drainLimit = 1 << 22

// driveWorkload drives a network through the timed sends exactly as the
// mcastsim drivers do — AdvanceTo across idle gaps, StepUntil bounded by
// the next injection time — then drains it with RunUntilIdle's checks:
// stop at the first fabric error (Err) or once drainLimit cycles have
// passed. The live-window invariants are checked after every StepUntil,
// and the full event stream is recorded. It returns the observable
// outcome and the text of the error that stopped the drain: "" when the
// fabric drained, which must then be quiesced. On faulted fabrics the
// error text is part of the outcome (an unreachable worm freezes holding
// its channels by design).
func driveWorkload(t *testing.T, n *Network, sends []timedSend) (runSnapshot, string) {
	t.Helper()
	log := &eventLog{}
	n.SetObserver(log)
	var snap runSnapshot
	record := func(w *Worm, now int64) { snap.Worms = append(snap.Worms, recordWorm(w)) }
	for _, s := range sends {
		for n.Now() < s.at {
			if n.Active() == 0 {
				n.AdvanceTo(s.at)
				break
			}
			n.StepUntil(s.at)
			checkWindows(t, n)
		}
		n.Send(s.src, s.dst, s.bytes, nil, record)
	}
	var errText string
	start := n.Now()
	for n.Active() > 0 && n.Err() == nil {
		if n.Now()-start >= drainLimit {
			errText = fmt.Sprintf("wormhole: network not idle after %d cycles (%d worms in flight)", drainLimit, n.Active())
			break
		}
		n.StepUntil(start + drainLimit)
		checkWindows(t, n)
	}
	if err := n.Err(); err != nil {
		errText = err.Error()
	} else if errText == "" {
		if err := n.Quiesced(); err != nil {
			t.Fatal(err)
		}
	}
	snap.Stats = n.Stats()
	snap.Now = n.Now()
	snap.Events = log.events
	return snap, errText
}

// runWorkload drives a workload that must drain, recording its event
// stream.
func runWorkload(t *testing.T, n *Network, sends []timedSend) runSnapshot {
	t.Helper()
	snap, errText := driveWorkload(t, n, sends)
	if errText != "" {
		t.Fatal(errText)
	}
	return snap
}

// diffSnapshots fails the test with a focused report of the first
// divergence instead of dumping two multi-thousand-line structs.
func diffSnapshots(t *testing.T, got, want runSnapshot) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if got.Stats != want.Stats {
		t.Errorf("stats diverge:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
	if got.Now != want.Now {
		t.Errorf("final clock diverges: got %d want %d", got.Now, want.Now)
	}
	for i := 0; i < len(got.Worms) && i < len(want.Worms); i++ {
		if got.Worms[i] != want.Worms[i] {
			t.Fatalf("worm record %d diverges:\n got %+v\nwant %+v", i, got.Worms[i], want.Worms[i])
		}
	}
	if len(got.Worms) != len(want.Worms) {
		t.Fatalf("completed worm count diverges: got %d want %d", len(got.Worms), len(want.Worms))
	}
	for i := 0; i < len(got.Events) && i < len(want.Events); i++ {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d diverges:\n got %s\nwant %s", i, got.Events[i], want.Events[i])
		}
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("event count diverges: got %d want %d", len(got.Events), len(want.Events))
	}
	t.Fatal("snapshots diverge") // unreachable unless a new field is missed above
}

// diffPlatforms are the four fabric families of the differential suite:
// the paper's mesh and BMIN (with adaptive ascent, so routing returns
// multiple candidates), a torus whose virtual channels share physical
// links, and the non-partitionable butterfly.
func diffPlatforms() []struct {
	name string
	topo Topology
} {
	return []struct {
		name string
		topo Topology
	}{
		{"mesh16x16", mesh.New2D(16, 16)},
		{"bmin128", bmin.New(128, bmin.AscentAdaptive)},
		{"torus8x8", torus.New2D(8, 8)},
		{"bfly64", bfly.New(64)},
	}
}

// TestKernelDifferential runs 8 seeded random workloads per fabric family
// (32 in total) through the reference and fast kernels and requires
// bit-identical outcomes. Odd seeds use a deliberately stall-heavy config
// (long RouterDelay, single-flit buffers) to force deep cycle-skipping;
// even seeds also turn worm recycling on for the fast kernel, proving
// pooling is behaviour-neutral against a non-recycling reference.
func TestKernelDifferential(t *testing.T) {
	for _, p := range diffPlatforms() {
		for seed := int64(0); seed < 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", p.name, seed), func(t *testing.T) {
				cfg := DefaultConfig()
				if seed%2 == 1 {
					cfg.RouterDelay = 7
					cfg.BufFlits = 1
				}
				r := rand.New(rand.NewSource(1997 + seed*7919))
				sends := randWorkload(r, p.topo.NumNodes(), 48)

				ref := New(p.topo, cfg)
				ref.SetKernel(KernelReference)
				want := runWorkload(t, ref, sends)

				fast := New(p.topo, cfg)
				fast.SetRecycling(seed%2 == 0)
				got := runWorkload(t, fast, sends)

				diffSnapshots(t, got, want)
			})
		}
	}
}

// TestKernelDifferentialLargeMesh is the one differential above 256
// nodes: a dense 160-send random workload on a 64×64 mesh, where many
// worms cross long live windows at once, through the reference and fast
// kernels.
func TestKernelDifferentialLargeMesh(t *testing.T) {
	topo := mesh.New2D(64, 64)
	r := rand.New(rand.NewSource(4096))
	sends := randWorkload(r, topo.NumNodes(), 160)

	ref := New(topo, DefaultConfig())
	ref.SetKernel(KernelReference)
	want := runWorkload(t, ref, sends)

	got := runWorkload(t, New(topo, DefaultConfig()), sends)
	diffSnapshots(t, got, want)
}

// TestKernelDifferentialStepwise drives both kernels strictly one Step at
// a time (no StepUntil, no AdvanceTo), pinning that Step itself — not
// just the skipping entry point — is equivalent cycle for cycle.
func TestKernelDifferentialStepwise(t *testing.T) {
	topo := mesh.New2D(8, 8)
	cfg := DefaultConfig()
	cfg.RouterDelay = 3
	r := rand.New(rand.NewSource(42))
	sends := randWorkload(r, topo.NumNodes(), 32)

	run := func(k Kernel) runSnapshot {
		n := New(topo, cfg)
		n.SetKernel(k)
		log := &eventLog{}
		n.SetObserver(log)
		var snap runSnapshot
		record := func(w *Worm, now int64) {
			snap.Worms = append(snap.Worms, wormRecord{ID: w.ID, InjectedAt: w.InjectedAt,
				ArrivedAt: w.ArrivedAt, Blocked: w.BlockedCycles, InjectWait: w.InjectWaitCycles})
		}
		for _, s := range sends {
			for n.Now() < s.at {
				n.Step()
				checkWindows(t, n)
			}
			n.Send(s.src, s.dst, s.bytes, nil, record)
		}
		for n.Active() > 0 {
			n.Step()
			checkWindows(t, n)
		}
		snap.Stats = n.Stats()
		snap.Now = n.Now()
		snap.Events = log.events
		return snap
	}

	diffSnapshots(t, run(KernelFast), run(KernelReference))
}

// TestAdvanceToEquivalentToIdleStepping is the fast-forward soundness
// property: on a quiesced network, AdvanceTo(t) followed by a workload is
// observably equivalent to stepping the idle cycles one at a time — same
// per-worm timings, same events, same flit and contention counters. The
// one documented difference is Stats.Cycles: AdvanceTo deliberately does
// not count fast-forwarded idle cycles (mcastsim.Result relies on that),
// while explicit Steps do.
func TestAdvanceToEquivalentToIdleStepping(t *testing.T) {
	topo := mesh.New2D(8, 8)
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(7 + seed))
			gap := 1 + r.Int63n(5000)
			base := randWorkload(r, topo.NumNodes(), 24)
			shifted := make([]timedSend, len(base))
			for i, s := range base {
				s.at += gap
				shifted[i] = s
			}

			fwd := New(topo, DefaultConfig())
			fwd.AdvanceTo(gap)
			a := runWorkload(t, fwd, shifted)

			stepped := New(topo, DefaultConfig())
			for i := int64(0); i < gap; i++ {
				stepped.Step()
			}
			b := runWorkload(t, stepped, shifted)

			if b.Stats.Cycles != a.Stats.Cycles+gap {
				t.Errorf("idle stepping counted %d cycles, want AdvanceTo's %d + gap %d",
					b.Stats.Cycles, a.Stats.Cycles, gap)
			}
			b.Stats.Cycles = a.Stats.Cycles
			diffSnapshots(t, b, a)
		})
	}
}
