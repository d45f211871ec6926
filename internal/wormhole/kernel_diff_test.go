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
	"strings"
	"testing"

	"repro/internal/bfly"
	"repro/internal/bmin"
	"repro/internal/fault"
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

// runSnapshot is the full observable outcome of a workload execution,
// plus what a driver's monitors read after each StepUntil. The two
// kernels return from StepUntil at different cycles, so Monitors is
// compared cycle by cycle (see diffMonitors), not as part of the outcome.
type runSnapshot struct {
	Stats    Stats
	Now      int64
	Worms    []wormRecord
	Events   []string
	Monitors []monitorState
}

// outcome returns the snapshot without its monitor readings.
func (s runSnapshot) outcome() runSnapshot {
	s.Monitors = nil
	return s
}

// monitorState is what a driver can read after a StepUntil: the cycle,
// the last cycle in which a flit moved, the number of worms frozen
// unreachable (what the monitors of mcastsim.Drive read) and Stats.
type monitorState struct {
	Now, LastMove int64
	Frozen        int
	Stats         Stats
}

func readMonitors(n *Network) monitorState {
	return monitorState{Now: n.Now(), LastMove: n.LastMove(), Frozen: n.Frozen(), Stats: n.Stats()}
}

// randWorkload draws a seeded send sequence of payloads below maxBytes,
// mixing same-cycle bursts, tight pacing, and long software-style gaps
// (which exercise both AdvanceTo and StepUntil's cycle-skipping).
func randWorkload(r *rand.Rand, nodes, count, maxBytes int) []timedSend {
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
		sends = append(sends, timedSend{at: at, src: src, dst: dst, bytes: r.Intn(maxBytes)})
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
// first unreleased channel onward) disagrees with the owner set, or the
// set with its own invariants (see CheckLiveWindows). It runs after every
// stepped cycle, so t.Helper, which costs a stack walk, is called only
// on failure.
func checkWindows(t *testing.T, n *Network) {
	if err := n.CheckLiveWindows(); err != nil {
		t.Helper()
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
// passed. The live-window invariants are checked after every stepped
// cycle (through the step hook) and after every StepUntil, whose
// readings are recorded, and the full event stream is recorded too. It
// returns the observable outcome and the text of the error that stopped
// the drain: "" when the fabric drained, which must then be quiesced. On
// faulted fabrics the error text is part of the outcome (an unreachable
// worm freezes holding its channels by design).
func driveWorkload(t *testing.T, n *Network, sends []timedSend) (runSnapshot, string) {
	t.Helper()
	snap, errText, _ := drive(t, n, sends, driveMode{})
	return snap, errText
}

// driveMode selects how drive runs a workload.
type driveMode struct {
	// cancelling cancels stranded worms as a recovery driver does (see
	// drive).
	cancelling bool
	// quiet attaches no observer, as the experiment sweeps, the delivery
	// layers and the benchmark workloads run the kernel: the fast kernel
	// then settles the events a clock jump passes over worm by worm
	// instead of cycle by cycle. The snapshot's event stream holds only
	// the cancels drive logs itself.
	quiet bool
}

// parkCounts tallies the closed-form paths one drive took, so a suite
// can fail when one of them went untested: worms seen crossing-parked
// after a stepped cycle, crossing-parked worms whose header then found
// every candidate owned (blocked) or dead (frozen), cancels of parked
// and of crossing-parked worms, and clock jumps inside which a parked
// worm's event (the end of its injection or a release) was settled. It
// also counts the runs whose hashed owner table grew past its first
// size, the hops delivered worms took from a planned route, and the
// worms left unplanned because their route held a dead channel.
type parkCounts struct {
	crossing, blocked, frozen, parkedCancels, crossingCancels, settled, grew int
	planned, unplanned                                                       int
}

func (c *parkCounts) add(o parkCounts) {
	c.crossing += o.crossing
	c.blocked += o.blocked
	c.frozen += o.frozen
	c.parkedCancels += o.parkedCancels
	c.crossingCancels += o.crossingCancels
	c.settled += o.settled
	c.grew += o.grew
	c.planned += o.planned
	c.unplanned += o.unplanned
}

// wantPlan reports whether Send should plan a worm from src to dst on n:
// under the fast kernel, on a topology that fixes the route at its
// source (AppendRoute appends it), when no channel of the route Route
// walks is dead. dead reports a route left unplanned for its dead
// channel.
func wantPlan(n *Network, src, dst NodeID) (plan, dead bool) {
	p, ok := n.Topology().(RoutePlanner)
	if !ok || n.Kernel() != KernelFast || len(p.AppendRoute(src, dst, nil)) == 0 {
		return false, false
	}
	if f := n.Faults(); f != nil {
		for _, c := range PathChannels(n.Topology(), src, dst)[1:] {
			if f.Dead(c) {
				return false, true
			}
		}
	}
	return true, false
}

// drive implements driveWorkload and adds a cancelling mode for fabrics
// whose dead links strand worms. A cancelling drive proceeds as a
// recovery driver does: after every StepUntil it cancels each worm
// frozen unreachable and goes on, so the whole workload runs instead of
// stopping at the first Err. StepUntil returns in the cycle a worm
// froze, so each is cancelled in that cycle. Before every fourth send it
// also cancels the oldest worm still in flight, which is often parked
// mid-stream. Each cancel is logged in the event stream, and the error
// text can only be a drain timeout. drive also returns the closed-form
// paths the fast kernel took: a worm parked while crossing after one
// stepped cycle and blocked or frozen after the next was unparked by its
// header in that cycle (skipped cycles between them change nothing); a
// StepUntil that returns after a clock jump with more stages finished
// than at its last stepped cycle settled events inside the jump. A
// cancelling drive must not recycle worms, and only an observed one
// tallies crossing worms: both keep every *Worm sent. drive also
// requires each worm planned at Send exactly when wantPlan says so, and
// counts the hops of delivered planned worms and the worms left
// unplanned for a dead channel.
func drive(t *testing.T, n *Network, sends []timedSend, mode driveMode) (runSnapshot, string, parkCounts) {
	t.Helper()
	log := &eventLog{}
	if !mode.quiet {
		n.SetObserver(log)
	}
	keep := mode.cancelling || !mode.quiet
	var snap runSnapshot
	var counts parkCounts
	record := func(w *Worm, now int64) {
		snap.Worms = append(snap.Worms, recordWorm(w))
		if w.Planned() {
			counts.planned += len(w.Path()) - 1
		}
	}
	var sent, frozen, crossing []*Worm
	cancelled := make(map[*Worm]bool)
	inFlight := func(w *Worm) bool { return !w.Done() && !cancelled[w] }
	cancel := func(w *Worm) {
		if n.Parked(w) {
			counts.parkedCancels++
		}
		if n.CrossingParked(w) {
			counts.crossingCancels++
		}
		log.events = append(log.events, fmt.Sprintf("t=%d cnl w=%d", n.Now(), w.ID))
		cancelled[w] = true
		n.Cancel(w)
	}
	var stepped, finished int64
	n.SetStepHook(func() {
		checkWindows(t, n)
		stepped, finished = n.Now(), n.FinishedStages()
		if n.Kernel() != KernelFast || mode.quiet {
			return
		}
		for _, w := range crossing {
			switch {
			case !inFlight(w) || n.Parked(w):
			case w.HeaderBlocked():
				counts.blocked++
			case w.HeaderFrozen():
				counts.frozen++
			}
		}
		crossing = crossing[:0]
		for _, w := range sent {
			if inFlight(w) && n.CrossingParked(w) {
				crossing = append(crossing, w)
			}
		}
		counts.crossing += len(crossing)
	})
	defer n.SetStepHook(nil)
	step := func(limit int64) {
		n.StepUntil(limit)
		checkWindows(t, n)
		if n.Now() > stepped && n.FinishedStages() != finished {
			counts.settled++
		}
		snap.Monitors = append(snap.Monitors, readMonitors(n))
		if !mode.cancelling || n.Err() == nil {
			return
		}
		frozen = n.Unreachable(frozen[:0])
		for _, w := range frozen {
			cancel(w)
		}
		if err := n.Err(); err != nil {
			t.Fatalf("cycle %d: error survives cancelling every frozen worm: %v", n.Now(), err)
		}
	}
	for i, s := range sends {
		for n.Now() < s.at {
			if n.Active() == 0 {
				n.AdvanceTo(s.at)
				break
			}
			step(s.at)
		}
		if mode.cancelling && i%4 == 3 {
			for _, w := range sent {
				if !w.Done() && !cancelled[w] {
					cancel(w)
					break
				}
			}
		}
		w := n.Send(s.src, s.dst, s.bytes, nil, record)
		plan, dead := wantPlan(n, s.src, s.dst)
		if w.Planned() != plan {
			t.Fatalf("cycle %d: worm %d (%d->%d) planned %v, want %v", n.Now(), w.ID, s.src, s.dst, w.Planned(), plan)
		}
		if dead {
			counts.unplanned++
		}
		if keep {
			sent = append(sent, w)
		}
	}
	var errText string
	start := n.Now()
	for n.Active() > 0 && n.Err() == nil {
		if n.Now()-start >= drainLimit {
			errText = fmt.Sprintf("wormhole: network not idle after %d cycles (%d worms in flight)", drainLimit, n.Active())
			break
		}
		step(start + drainLimit)
	}
	if err := n.Err(); err != nil {
		errText = err.Error()
	} else if errText == "" {
		if err := n.Quiesced(); err != nil {
			t.Fatal(err)
		}
	}
	if n.HashedGrew() {
		counts.grew++
	}
	snap.Stats = n.Stats()
	snap.Now = n.Now()
	snap.Events = log.events
	return snap, errText, counts
}

// runWorkload drives a workload that must drain, recording its event
// stream.
func runWorkload(t *testing.T, n *Network, sends []timedSend) runSnapshot {
	t.Helper()
	snap, _ := runCounted(t, n, sends, driveMode{})
	return snap
}

// runCounted is runWorkload in the given mode that also returns the
// closed-form paths the run took.
func runCounted(t *testing.T, n *Network, sends []timedSend, mode driveMode) (runSnapshot, parkCounts) {
	t.Helper()
	snap, errText, counts := drive(t, n, sends, mode)
	if errText != "" {
		t.Fatal(errText)
	}
	return snap, counts
}

// unobserved returns the snapshot as a run with no observer records it:
// without its event stream, except the cancels drive logs itself.
func (s runSnapshot) unobserved() runSnapshot {
	var events []string
	for _, e := range s.Events {
		if strings.Contains(e, " cnl ") {
			events = append(events, e)
		}
	}
	s.Events = events
	return s
}

// diffSnapshots fails the test with a focused report of the first
// divergence instead of dumping two multi-thousand-line structs. It
// compares the monitor readings first (see diffMonitors), then the
// outcome.
func diffSnapshots(t *testing.T, got, want runSnapshot) {
	t.Helper()
	diffMonitors(t, got.Monitors, want.Monitors)
	got, want = got.outcome(), want.outcome()
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

// diffMonitors requires that at every StepUntil return of the run that
// recorded got, the run that recorded want returned at the same cycle
// with the same readings. want comes from the reference kernel, whose
// StepUntil returns after every cycle, or from a run that returns at the
// same cycles as got's.
func diffMonitors(t *testing.T, got, want []monitorState) {
	t.Helper()
	j := 0
	for _, g := range got {
		for j < len(want) && want[j].Now < g.Now {
			j++
		}
		if j == len(want) || want[j].Now != g.Now {
			t.Fatalf("StepUntil returned at cycle %d; the other run never did", g.Now)
		}
		if want[j] != g {
			t.Fatalf("monitor readings diverge at cycle %d:\n got %+v\nwant %+v", g.Now, g, want[j])
		}
	}
}

// diffPlatforms are the four fabric families of the differential suite:
// the paper's mesh and BMIN, a torus whose virtual channels share
// physical links, and the non-partitionable butterfly. The BMIN runs
// twice: with adaptive ascent, so routing returns multiple candidates,
// and with straight ascent, the BMIN every figure runs, whose routes the
// fast kernel plans at Send as it does the mesh's.
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
		{"bmin128straight", bmin.New(128, bmin.AscentStraight)},
		{"torus8x8", torus.New2D(8, 8)},
		{"bfly64", bfly.New(64)},
	}
}

// TestKernelDifferential runs seeded random workloads on all four
// fabric families through the reference and fast kernels and requires
// bit-identical outcomes. Per family, seeds 0–7 send worms below 200 B;
// seeds 8–11 (the "long" cases) send worms of up to 8 KB, whose parked
// stretches span cycle-skipping jumps, blocked headers and other worms'
// events (the torus, which never parks, is their control). Odd seeds use
// a deliberately stall-heavy config (long RouterDelay, single-flit
// buffers) to force deep cycle-skipping; even seeds also turn worm
// recycling on for the fast kernel, proving pooling is behaviour-neutral
// against a non-recycling reference. The "period" cases send worms of up
// to 4 KB under every RouterDelay in {0, 1, 2} and BufFlits in {1, 2, 4}:
// a crossing worm's motion repeats every RouterDelay+1 cycles; it parks
// when BufFlits > RouterDelay, and otherwise stands still for part of
// each period and steps per cycle.
// The observed fast run keeps its channel owners hashed (NewHashed)
// while the reference keeps them flat: both kernels share the owner set,
// so only a run on the other form can catch a fault in it. Every case
// also runs the fast kernel with no observer and recycling on, on the
// flat form, as the experiment sweeps and the delivery layers run it,
// and compares it with the reference run but for the event stream: its
// jumps settle parked worms' events worm by worm, not cycle by cycle.
// The mesh and the straight BMIN plan their worms' routes at Send, so
// their fast runs take their hops from the plan while the reference
// routes every hop. The suite fails if no fast run parked a crossing
// worm or unparked one whose header then blocked, if the observed or the
// unobserved runs never settled a parked worm's event inside a clock
// jump or never took a planned hop, or if no hashed owner table grew
// past its first size.
func TestKernelDifferential(t *testing.T) {
	type diffCase struct {
		name     string
		cfg      Config
		seed     int64
		maxBytes int
		recycle  bool
	}
	var cases []diffCase
	for seed := int64(0); seed < 12; seed++ {
		c := diffCase{name: fmt.Sprintf("seed%d", seed), cfg: DefaultConfig(), seed: seed, maxBytes: 200, recycle: seed%2 == 0}
		if seed >= 8 {
			c.name, c.maxBytes = fmt.Sprintf("long/seed%d", seed), 8<<10
		}
		if seed%2 == 1 {
			c.cfg.RouterDelay = 7
			c.cfg.BufFlits = 1
		}
		cases = append(cases, c)
	}
	for rd := int64(0); rd <= 2; rd++ {
		for _, buf := range []int{1, 2, 4} {
			c := diffCase{name: fmt.Sprintf("period/rd%d-buf%d", rd, buf), cfg: DefaultConfig(), seed: 20 + rd*3 + int64(buf), maxBytes: 4 << 10}
			c.cfg.RouterDelay, c.cfg.BufFlits = rd, buf
			cases = append(cases, c)
		}
	}
	total, ran := 0, 0
	var counts, quiet parkCounts
	for _, p := range diffPlatforms() {
		for _, c := range cases {
			total++
			t.Run(p.name+"/"+c.name, func(t *testing.T) {
				ran++
				r := rand.New(rand.NewSource(1997 + c.seed*7919))
				sends := randWorkload(r, p.topo.NumNodes(), 48, c.maxBytes)

				ref := New(p.topo, c.cfg)
				ref.SetKernel(KernelReference)
				want := runWorkload(t, ref, sends)

				fast := NewHashed(p.topo, c.cfg)
				fast.SetRecycling(c.recycle)
				got, k := runCounted(t, fast, sends, driveMode{})
				counts.add(k)
				diffSnapshots(t, got, want)

				fast = New(p.topo, c.cfg)
				fast.SetRecycling(true)
				got, k = runCounted(t, fast, sends, driveMode{quiet: true})
				quiet.add(k)
				diffSnapshots(t, got, want.unobserved())
			})
		}
	}
	if ran == total && (counts.crossing == 0 || counts.blocked == 0 || counts.settled == 0 || quiet.settled == 0 || counts.grew == 0 ||
		counts.planned == 0 || quiet.planned == 0) {
		t.Fatalf("closed-form paths, planned hops or hashed-owner growth went untested: observed %+v, unobserved %+v", counts, quiet)
	}
}

// TestKernelDifferentialLargeMesh is the one differential above 256
// nodes: dense random workloads on a 64×64 mesh, where many worms cross
// long live windows at once, through the reference and fast kernels.
// The first sends 160 worms below 200 B; the second sends 48 of up to
// 4 KB, so that some crossings (up to 126 hops) outlast their worm's
// injection and the whole train moves behind the header, while others
// are still injecting when their header reaches its destination.
func TestKernelDifferentialLargeMesh(t *testing.T) {
	topo := mesh.New2D(64, 64)
	for _, tc := range []struct {
		name            string
		count, maxBytes int
	}{
		{"short", 160, 200},
		{"multiKB", 48, 4 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(4096))
			sends := randWorkload(r, topo.NumNodes(), tc.count, tc.maxBytes)

			ref := New(topo, DefaultConfig())
			ref.SetKernel(KernelReference)
			want := runWorkload(t, ref, sends)

			got := runWorkload(t, New(topo, DefaultConfig()), sends)
			diffSnapshots(t, got, want)
		})
	}
}

// TestKernelDifferentialStepwise drives both kernels strictly one Step at
// a time (no StepUntil, no AdvanceTo), pinning that Step itself — not
// just the skipping entry point — is equivalent cycle for cycle, and
// that Stats is equal after every Step, while parked worms stream or
// cross, not only at the end. It runs on the healthy mesh and under a
// dead-only fault plan, where worms park too and every worm frozen
// unreachable is cancelled after the Step that froze it, with
// RouterDelay 3, where a crossing worm stands still two cycles in four
// and steps per cycle, and on the healthy mesh with the default fabric,
// where it never stalls and parks.
func TestKernelDifferentialStepwise(t *testing.T) {
	topo := mesh.New2D(8, 8)
	slow := DefaultConfig()
	slow.RouterDelay = 3
	r := rand.New(rand.NewSource(42))
	sends := randWorkload(r, topo.NumNodes(), 32, 200)

	run := func(k Kernel, cfg Config, plan FaultModel) (runSnapshot, []Stats) {
		n := New(topo, cfg)
		n.SetKernel(k)
		if plan != nil {
			n.SetFaults(plan)
		}
		log := &eventLog{}
		n.SetObserver(log)
		var snap runSnapshot
		var steps []Stats
		var frozen []*Worm
		record := func(w *Worm, now int64) {
			snap.Worms = append(snap.Worms, wormRecord{ID: w.ID, InjectedAt: w.InjectedAt,
				ArrivedAt: w.ArrivedAt, Blocked: w.BlockedCycles, InjectWait: w.InjectWaitCycles})
		}
		step := func() {
			n.Step()
			checkWindows(t, n)
			frozen = n.Unreachable(frozen[:0])
			for _, w := range frozen {
				log.events = append(log.events, fmt.Sprintf("t=%d cnl w=%d", n.Now(), w.ID))
				n.Cancel(w)
			}
			steps = append(steps, n.Stats())
		}
		for _, s := range sends {
			for n.Now() < s.at {
				step()
			}
			n.Send(s.src, s.dst, s.bytes, nil, record)
		}
		for n.Active() > 0 {
			step()
		}
		snap.Stats = n.Stats()
		snap.Now = n.Now()
		snap.Events = log.events
		return snap, steps
	}

	for _, tc := range []struct {
		name string
		cfg  Config
		plan FaultModel
	}{
		{"healthy", slow, nil},
		{"dead6", slow, fault.MustPlan(topo, fault.Spec{DeadFrac: 0.06, Seed: 3})},
		{"default", DefaultConfig(), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, gotSteps := run(KernelFast, tc.cfg, tc.plan)
			want, wantSteps := run(KernelReference, tc.cfg, tc.plan)
			for i := 0; i < len(gotSteps) && i < len(wantSteps); i++ {
				if gotSteps[i] != wantSteps[i] {
					t.Fatalf("cycle %d: stats diverge:\n got %+v\nwant %+v", i+1, gotSteps[i], wantSteps[i])
				}
			}
			diffSnapshots(t, got, want)
		})
	}
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
			base := randWorkload(r, topo.NumNodes(), 24, 200)
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
			for i := range b.Monitors {
				b.Monitors[i].Stats.Cycles -= gap
			}
			diffSnapshots(t, b, a)
		})
	}
}
