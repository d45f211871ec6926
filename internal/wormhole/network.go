package wormhole

import (
	"fmt"
	"strings"
)

// Config holds the fabric parameters. The zero value is not valid; use
// DefaultConfig and adjust.
type Config struct {
	// FlitBytes is the payload carried per flit.
	FlitBytes int
	// HeaderFlits is the per-message header overhead in flits (routing
	// information, destination address list framing).
	HeaderFlits int
	// BufFlits is the flit buffer capacity of every channel. Wormhole
	// routers traditionally have very small buffers; 2 is typical.
	BufFlits int
	// RouterDelay is the number of cycles a router needs to make a
	// routing decision for a header flit at each hop.
	RouterDelay int64
}

// DefaultConfig returns the fabric parameters used by the experiments:
// 8-byte flits, 1 header flit, 2-flit channel buffers, 1-cycle routing
// decisions.
func DefaultConfig() Config {
	return Config{FlitBytes: 8, HeaderFlits: 1, BufFlits: 2, RouterDelay: 1}
}

// Validate reports an error for non-positive parameters.
func (c Config) Validate() error {
	if c.FlitBytes <= 0 {
		return fmt.Errorf("wormhole: FlitBytes %d <= 0", c.FlitBytes)
	}
	if c.HeaderFlits <= 0 {
		return fmt.Errorf("wormhole: HeaderFlits %d <= 0 (the header flit carries the route)", c.HeaderFlits)
	}
	if c.BufFlits <= 0 {
		return fmt.Errorf("wormhole: BufFlits %d <= 0", c.BufFlits)
	}
	if c.RouterDelay < 0 {
		return fmt.Errorf("wormhole: RouterDelay %d < 0", c.RouterDelay)
	}
	return nil
}

// Flits returns the number of flits a message of the given payload size
// occupies under this configuration.
func (c Config) Flits(bytes int) int {
	return c.HeaderFlits + (bytes+c.FlitBytes-1)/c.FlitBytes
}

// ArrivalFunc is invoked (after the cycle's phases complete) when a worm's
// tail flit has been consumed by the destination interface.
type ArrivalFunc func(w *Worm, now int64)

// Observer receives fabric events for tracing and analysis. All methods
// are called synchronously from Step; implementations must not mutate the
// network. A nil observer costs one predictable branch per event.
type Observer interface {
	// Acquire fires when a worm takes ownership of a channel.
	Acquire(now int64, w *Worm, c ChannelID)
	// Release fires when the worm's last flit leaves the channel.
	Release(now int64, w *Worm, c ChannelID)
	// Blocked fires each cycle a header wants a channel owned by another
	// worm. When the topology offered several routing candidates (all
	// owned, or the header would have advanced), the reported channel is
	// the candidate held by the oldest worm — under oldest-first
	// arbitration the oldest holder heads the blocking chain, so the
	// report names the actual culprit rather than an arbitrary
	// preference; ties on holder resolve to the earliest candidate in
	// preference order. holder is that channel's current owner.
	Blocked(now int64, w *Worm, c ChannelID, holder *Worm)
	// Complete fires when the worm's tail is consumed at its
	// destination.
	Complete(now int64, w *Worm)
}

// Kernel selects the scheduling strategy of the simulator core.
type Kernel int

const (
	// KernelFast is the default stall-aware kernel: worms that provably
	// cannot move skip their per-cycle scan, blocked headers replay a
	// cached routing decision instead of re-routing, and StepUntil jumps
	// the clock over cycles in which nothing can happen. It is
	// observably equivalent to KernelReference (identical Stats,
	// per-worm timings and observer event streams), which the
	// differential and fuzz suites in kernel_diff_test.go enforce.
	KernelFast Kernel = iota
	// KernelReference is the original straight-line kernel: one full
	// pass over every worm per simulated cycle. It is kept as the
	// oracle for differential testing and as the simplest statement of
	// the simulator's semantics.
	KernelReference
)

// Worm is one in-flight message.
type Worm struct {
	// ID is the creation sequence number; arbitration is oldest-first.
	ID int64
	// Src and Dst are the endpoints.
	Src, Dst NodeID
	// Bytes is the payload size.
	Bytes int
	// Tag carries caller context (e.g. the multicast segment) untouched.
	Tag any

	// BlockedCycles counts cycles the header spent wanting a channel
	// owned by another worm: the network-contention metric of the paper.
	BlockedCycles int64
	// InjectWaitCycles counts cycles spent waiting for the node's single
	// injection channel (one-port serialization, not network contention).
	InjectWaitCycles int64
	// InjectedAt is the cycle the first flit entered the fabric.
	InjectedAt int64
	// ArrivedAt is the cycle the tail flit was consumed at Dst.
	ArrivedAt int64

	flits  int
	path   []ChannelID
	passed []int // flits that have exited path[i]
	// tail is the index of the first unreleased channel: path[:tail] are
	// released (passed == flits) and path[tail:] are still owned. A
	// channel empties only after its upstream neighbour has, because
	// passed[i] <= passed[i-1] <= injected, so the released channels
	// always form a prefix: the fast kernel's flit motion walks only
	// path[tail:], and Cancel releases exactly path[tail:].
	tail          int
	injected      int
	headerReadyAt int64
	routed        bool // path ends at Dst's ejection channel
	done          bool
	onArrive      ArrivalFunc
	createdAt     int64

	// Fast-kernel scheduling state. The asleep flag itself lives in
	// Network.asleep, a flat slice indexed by slot, so the per-cycle scan
	// touches one byte per worm instead of a whole Worm struct. slot is
	// the worm's index in the network's slot table for as long as it is
	// in flight. waitState caches the header's outcome (blocked on an owned
	// channel, or waiting for the injection port) and is valid while
	// waitEpoch matches the network's ownership epoch — i.e. until any
	// acquire or release anywhere could have changed the answer.
	slot      int32
	waitState uint8
	waitEpoch int64
	blockCand ChannelID
	blockHold *Worm
}

const (
	waitNone uint8 = iota
	waitBlocked
	waitInject
	// waitUnreachable is terminal: every routing candidate is dead. It is
	// not epoch-guarded — dead channels never heal, so the verdict can
	// never change.
	waitUnreachable
)

// Flits returns the worm's total flit count.
func (w *Worm) Flits() int { return w.flits }

// Path returns the channels acquired so far (shared slice; do not modify).
func (w *Worm) Path() []ChannelID { return w.path }

// Done reports whether the worm has been fully consumed at its
// destination.
func (w *Worm) Done() bool { return w.done }

func (w *Worm) entered(i int) int {
	if i == 0 {
		return w.injected
	}
	return w.passed[i-1]
}

func (w *Worm) occ(i int) int { return w.entered(i) - w.passed[i] }

// Stats aggregates fabric-level counters across completed worms.
type Stats struct {
	// Cycles is the number of simulated cycles stepped.
	Cycles int64
	// Worms is the number of completed messages.
	Worms int64
	// FlitHops counts every flit-channel event: injection into the first
	// channel, each inter-channel move, and consumption out of the last —
	// flits*(pathLen+1) per worm.
	FlitHops int64
	// BlockedCycles sums header-blocked cycles over all worms
	// (contention).
	BlockedCycles int64
	// InjectWaitCycles sums one-port injection waiting over all worms.
	InjectWaitCycles int64
	// Cancelled is the number of worms withdrawn via Cancel before
	// arrival (recovery-layer retransmits and give-ups). Cancelled worms
	// are not counted in Worms and their per-worm blocked/inject-wait
	// counters are discarded with them.
	Cancelled int64
}

// Network is the simulator state for one fabric instance.
type Network struct {
	topo Topology
	cfg  Config
	now  int64

	// Channel occupancy as a flat slice indexed by ChannelID: the slot
	// index of the owning worm, or -1 when free. Slots — not pointers —
	// keep the hot arrays pointer-free.
	owner  []int32
	owned  int // channels with owner >= 0, so Quiesced need not scan owner
	inject []ChannelID
	eject  []ChannelID

	// Slot table: slots[w.slot] == w for every in-flight worm; freeSlots
	// holds recycled indices (cap always >= len(slots), so reap can push
	// by index). asleep[s] != 0 means slot s's worm provably cannot move
	// a flit this epoch.
	slots     []*Worm
	freeSlots []int32
	asleep    []uint8

	worms     []*Worm // active, in creation order
	completed []*Worm // filled during a Step, drained at its end
	nextID    int64
	routeBuf  []ChannelID
	stats     Stats
	obs       Observer

	// dlWaiters is DeadlockReport's per-channel waiting-header histogram,
	// cached across invocations (at 1M+ channels a fresh make per
	// watchdog fire is a multi-MB allocation) and cleared lazily.
	dlWaiters []int32

	// Virtual-channel support (nil lg = every channel has its own link).
	lg        LinkGrouper
	linkStamp []int64 // cycle a link last carried a flit
	rotation  int64   // phase-A fairness rotation among worms

	// Kernel scheduling state (see DESIGN.md §4, "kernel scheduling").
	kernel   Kernel
	epoch    int64 // bumped on every acquire/release; keys waitState caches
	progress bool  // the last stepped cycle moved a flit or changed ownership

	// Fault layer (see SetFaults). deadFn and frouter are cached from
	// faults/topo so routing does not rebind method values per call.
	faults     FaultModel
	deadFn     func(ChannelID) bool
	frouter    FaultRouter
	faultStall bool // a flit was refused by Up() in the last stepped cycle
	err        error

	// Worm pooling (see SetRecycling).
	recycle bool
	free    []*Worm
}

// New creates a network over the given topology. It panics on an invalid
// config, which is a programming error, not an operational condition.
func New(topo Topology, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{
		topo:   topo,
		cfg:    cfg,
		owner:  make([]int32, topo.NumChannels()),
		inject: make([]ChannelID, topo.NumNodes()),
		eject:  make([]ChannelID, topo.NumNodes()),
	}
	for i := range n.owner {
		n.owner[i] = -1
	}
	for i := 0; i < topo.NumNodes(); i++ {
		n.inject[i] = topo.InjectChannel(NodeID(i))
		n.eject[i] = topo.EjectChannel(NodeID(i))
	}
	if lg, ok := topo.(LinkGrouper); ok {
		n.lg = lg
		n.linkStamp = make([]int64, lg.NumLinks())
		for i := range n.linkStamp {
			n.linkStamp[i] = -1
		}
	}
	return n
}

// linkFree reports whether a flit may enter channel c this cycle, and
// claims the underlying physical link if so. Channels with dedicated
// links (or on fabrics without virtual channels) are always free.
func (n *Network) linkFree(c ChannelID) bool {
	if n.lg == nil {
		return true
	}
	l := n.lg.LinkOf(c)
	if l < 0 {
		return true
	}
	if n.linkStamp[l] == n.now {
		return false
	}
	n.linkStamp[l] = n.now
	return true
}

// chanUp reports whether channel c can accept a flit this cycle under
// the installed fault model (always true on a healthy fabric).
func (n *Network) chanUp(c ChannelID) bool {
	return n.faults == nil || n.faults.Up(c, n.now)
}

// routeCands returns the live candidate channels for w's header, in
// preference order, reusing n.routeBuf as scratch. On a faulted fabric it
// delegates to the topology's FaultRouter when implemented, else filters
// dead channels out of the oblivious route. The (possibly regrown)
// backing array is saved back to n.routeBuf here, so every caller —
// including diagnostics like DeadlockReport — retains the grown capacity
// instead of re-allocating on its next route; the returned slice is only
// valid until the next routeCands call.
func (n *Network) routeCands(w *Worm) []ChannelID {
	last := w.path[len(w.path)-1]
	var cands []ChannelID
	if n.frouter != nil {
		cands = n.frouter.RouteDegraded(last, w.Src, w.Dst, n.deadFn, n.routeBuf[:0])
	} else {
		cands = n.topo.Route(last, w.Src, w.Dst, n.routeBuf[:0])
		if n.faults != nil {
			live := cands[:0]
			for _, c := range cands {
				if !n.faults.Dead(c) {
					live = append(live, c)
				}
			}
			cands = live
		}
	}
	n.routeBuf = cands
	return cands
}

// markUnreachable freezes a worm whose destination cannot be reached
// under the installed fault set and records the first such error. Setting
// faultStall pins the clock to this cycle in StepUntil, so both kernels
// observe the error at the same Now().
func (n *Network) markUnreachable(w *Worm, where ChannelID) {
	w.waitState = waitUnreachable
	n.faultStall = true
	if n.err == nil {
		n.err = fmt.Errorf("wormhole: worm %d (%d->%d) unreachable: no live routing candidate at %s (faulted fabric)",
			w.ID, w.Src, w.Dst, n.topo.DescribeChannel(where))
	}
}

// Topology returns the fabric's topology.
func (n *Network) Topology() Topology { return n.topo }

// Config returns the fabric parameters.
func (n *Network) Config() Config { return n.cfg }

// Now returns the current simulation time in cycles.
func (n *Network) Now() int64 { return n.now }

// Active returns the number of in-flight worms.
func (n *Network) Active() int { return len(n.worms) }

// Stats returns a snapshot of the aggregate counters.
func (n *Network) Stats() Stats { return n.stats }

// SetObserver installs (or, with nil, removes) a fabric event observer.
// While an observer is attached, worm recycling (SetRecycling) is
// suspended: completed worms are left to the garbage collector so the
// *Worm an observer receives in Complete stays valid if retained.
func (n *Network) SetObserver(o Observer) { n.obs = o }

// SetFaults installs (or, with nil, removes) a fault model, degrading the
// fabric: dead channels are never routed into (a header with no live
// candidate freezes and records an unreachable error, see Err), and live
// channels accept flits only on cycles the model reports Up. The model
// must be deterministic; both kernels then remain observably equivalent
// under any fault set. Faults may only change while the fabric is idle.
func (n *Network) SetFaults(f FaultModel) {
	if len(n.worms) != 0 {
		panic("wormhole: SetFaults with active worms")
	}
	n.faults = f
	n.deadFn = nil
	n.frouter = nil
	if f != nil {
		n.deadFn = f.Dead
		if fr, ok := n.topo.(FaultRouter); ok {
			n.frouter = fr
		}
	}
}

// Faults returns the installed fault model, or nil on a healthy fabric.
func (n *Network) Faults() FaultModel { return n.faults }

// Err returns the first unrecoverable routing error — a worm whose every
// candidate channel is dead (unreachable destination under the installed
// fault set) — or nil. The stuck worm freezes in place, holding its
// channels; drivers are expected to check Err and abort.
func (n *Network) Err() error { return n.err }

// Kernel returns the kernel the network is running.
func (n *Network) Kernel() Kernel { return n.kernel }

// SetKernel selects the scheduling kernel. Both kernels are observably
// equivalent; KernelReference exists as the differential-testing oracle.
// The kernel may only be changed while the fabric is idle.
func (n *Network) SetKernel(k Kernel) {
	if len(n.worms) != 0 {
		panic("wormhole: SetKernel with active worms")
	}
	n.kernel = k
}

// SetRecycling enables (or disables) pooling of Worm structs and their
// path/passed slices: completed worms are pushed onto a free list after
// their arrival callback and Complete event fire, and Send reuses them,
// making steady-state Send+Step allocation-free. With recycling on,
// neither the caller nor any observer may retain a *Worm (or its Path
// slice) after Complete/ArrivalFunc return — the object will be reset
// and reissued. Recycling never changes simulated behaviour: IDs,
// timings and statistics are identical either way.
func (n *Network) SetRecycling(on bool) {
	n.recycle = on
	if on {
		n.reserve()
	}
}

// AdvanceTo fast-forwards the clock when the fabric is idle, so software
// latencies far larger than network activity do not cost simulation work.
// It panics if worms are in flight or t is in the past.
func (n *Network) AdvanceTo(t int64) {
	if len(n.worms) != 0 {
		panic("wormhole: AdvanceTo with active worms")
	}
	if t < n.now {
		panic(fmt.Sprintf("wormhole: AdvanceTo(%d) before now=%d", t, n.now))
	}
	n.now = t
}

// alloc returns a zeroed worm, reusing a pooled one when available. The
// &Worm{} miss path is the pool's one sanctioned allocation: steady
// state hits the free list and reuses the path/passed backing arrays.
//
//lint:hotpath
func (n *Network) alloc() *Worm {
	k := len(n.free) - 1
	if k < 0 {
		return &Worm{}
	}
	w := n.free[k]
	n.free[k] = nil
	n.free = n.free[:k]
	path, passed := w.path[:0], w.passed[:0]
	*w = Worm{path: path, passed: passed}
	return w
}

// Send creates a worm from src to dst carrying bytes of payload. The worm
// begins competing for src's injection channel on the next Step. onArrive
// (optional) fires when the tail flit is consumed at dst. Sending to
// oneself is allowed (the worm traverses the local inject/eject pair).
func (n *Network) Send(src, dst NodeID, bytes int, tag any, onArrive ArrivalFunc) *Worm {
	if bytes < 0 {
		panic(fmt.Sprintf("wormhole: Send with negative size %d", bytes))
	}
	if int(src) < 0 || int(src) >= n.topo.NumNodes() || int(dst) < 0 || int(dst) >= n.topo.NumNodes() {
		panic(fmt.Sprintf("wormhole: Send endpoints %d->%d out of range [0,%d)", src, dst, n.topo.NumNodes()))
	}
	w := n.alloc()
	w.ID = n.nextID
	w.Src, w.Dst = src, dst
	w.Bytes = bytes
	w.Tag = tag
	w.flits = n.cfg.Flits(bytes)
	w.onArrive = onArrive
	w.createdAt = n.now
	n.nextID++
	w.slot = n.takeSlot(w)
	n.worms = append(n.worms, w)
	n.reserve()
	return w
}

// takeSlot assigns w a slot in the flat worm-state arrays, growing them
// (and freeSlots' reserve capacity, so reap can push freed slots by
// index) on a cold miss. Steady state pops the free list and allocates
// nothing.
func (n *Network) takeSlot(w *Worm) int32 {
	if k := len(n.freeSlots) - 1; k >= 0 {
		s := n.freeSlots[k]
		n.freeSlots = n.freeSlots[:k]
		n.slots[s] = w
		n.asleep[s] = 0
		return s
	}
	s := int32(len(n.slots))
	n.slots = append(n.slots, w)
	n.asleep = append(n.asleep, 0)
	if cap(n.freeSlots) < len(n.slots) {
		grown := make([]int32, len(n.freeSlots), 2*len(n.slots))
		copy(grown, n.freeSlots)
		n.freeSlots = grown
	}
	return s
}

// freeSlot returns a drained worm's slot to the free list. Indexed push:
// takeSlot keeps cap(freeSlots) >= len(slots), and a slot is freed at
// most once per assignment.
//
//lint:hotpath
func (n *Network) freeSlot(s int32) {
	n.slots[s] = nil
	k := len(n.freeSlots)
	n.freeSlots = n.freeSlots[:k+1]
	n.freeSlots[k] = s
}

// reserve grows the completed and free lists, outside the hot regions,
// to the capacity the per-cycle paths may need, so moveFlitsFast and
// reap can push by index without append. Invariants: every in-flight
// worm may complete within one Step, so cap(completed) covers
// len(worms); with recycling, reap pushes each drained worm onto the
// free list while arrival callbacks may Send (shrinking free, growing
// worms) mid-drain, so cap(free) covers the free list plus every worm
// that is in flight or awaiting drain.
func (n *Network) reserve() {
	if cap(n.completed) < len(n.worms) {
		grown := make([]*Worm, len(n.completed), 2*len(n.worms))
		copy(grown, n.completed)
		n.completed = grown
	}
	if !n.recycle {
		return
	}
	if need := len(n.free) + len(n.worms) + len(n.completed); cap(n.free) < need {
		grown := make([]*Worm, len(n.free), 2*need)
		copy(grown, n.free)
		n.free = grown
	}
}

// Cancel withdraws an in-flight worm from the fabric at the current
// cycle: every channel it still holds is released (with Release observer
// events), its remaining flits are discarded, and its arrival callback
// never fires. It is the primitive a recovery driver needs for
// timeout/retransmit — cancel the overdue worm, then Send a fresh copy —
// and guarantees at-most-once delivery because the payload is withdrawn
// before the replacement enters the fabric. Cancel is a driver-level
// operation: call it between Step/StepUntil calls, never from an
// observer or arrival callback. Cancelling a completed, unknown or nil
// worm panics. A cancelled worm's per-worm counters are discarded (see
// Stats.Cancelled). If the cancelled worm was frozen unreachable and no
// frozen worm remains, the recorded fabric error (Err) is cleared so the
// run can continue.
func (n *Network) Cancel(w *Worm) {
	if w == nil || w.done {
		panic("wormhole: Cancel of nil or completed worm")
	}
	at := -1
	for i, a := range n.worms {
		if a == w {
			at = i
			break
		}
	}
	if at < 0 {
		panic(fmt.Sprintf("wormhole: Cancel of worm %d not in flight", w.ID))
	}
	for w.tail < len(w.path) {
		n.release(w, w.tail)
	}
	wasFrozen := w.waitState == waitUnreachable
	n.worms = append(n.worms[:at], n.worms[at+1:]...)
	n.freeSlot(w.slot)
	// Ownership and the active set changed; cached verdicts are stale.
	n.epoch++
	n.progress = true
	n.stats.Cancelled++
	if wasFrozen && n.err != nil {
		frozen := false
		for _, a := range n.worms {
			if a.waitState == waitUnreachable {
				frozen = true
				break
			}
		}
		if !frozen {
			n.err = nil
		}
	}
	if n.recycle && n.obs == nil {
		n.free = append(n.free, w)
	}
}

// Unreachable appends to buf the active worms frozen because no live
// route toward their destination exists (see SetFaults), in creation
// order, and returns the extended slice. Recovery drivers poll it after
// each StepUntil: a frozen worm never completes on its own, so the
// driver must Cancel it and re-plan the delivery (retry elsewhere, or
// give the destination up).
func (n *Network) Unreachable(buf []*Worm) []*Worm {
	for _, w := range n.worms {
		if w.waitState == waitUnreachable {
			buf = append(buf, w)
		}
	}
	return buf
}

// Step advances the simulation by exactly one cycle: flits move
// downstream-first, then headers attempt channel acquisition
// oldest-worm-first, then arrival callbacks fire for worms completed this
// cycle.
//
//lint:hotpath
func (n *Network) Step() {
	if n.kernel == KernelReference {
		n.stepReference()
		return
	}
	n.stepFast()
}

// StepUntil advances the simulation by at least one cycle and at most to
// limit (which must be in the future). It is observably equivalent to
// calling Step repeatedly while Now() < limit, but may return early — the
// caller is expected to loop — and, under KernelFast, when the stepped
// cycle made no progress (no flit moved, no channel changed hands) it
// jumps the clock directly to the cycle before the earliest pending
// router decision, bulk-crediting Cycles, BlockedCycles and
// InjectWaitCycles for the skipped stretch. Long software gaps and
// blocked stretches therefore cost O(1) instead of O(cycles × worms).
//
//lint:hotpath
func (n *Network) StepUntil(limit int64) {
	if limit <= n.now {
		n.badStepUntil(limit)
	}
	n.Step()
	if n.kernel == KernelReference || n.progress || n.faultStall {
		// faultStall: some flit was refused by a fault-gated channel this
		// cycle; the channel's Up() verdict can change at any future cycle,
		// so "every skipped cycle is an identical stall" does not hold and
		// the clock must advance one cycle at a time.
		return
	}
	// The cycle just stepped moved nothing and changed no ownership:
	// every worm is frozen (blocked, inject-waiting, or pending a router
	// decision) and the fabric state cannot change before the earliest
	// headerReadyAt. Every cycle strictly before it is an identical
	// stall, so the clock can jump there in one move.
	target := limit
	if e, ok := n.nextHeaderEvent(); ok && e-1 < limit {
		target = e - 1
	}
	if target > n.now {
		n.skipTo(target)
	}
}

// badStepUntil reports a StepUntil limit that is not in the future.
// Outlined from StepUntil so the hot entry point carries no fmt call.
func (n *Network) badStepUntil(limit int64) {
	panic(fmt.Sprintf("wormhole: StepUntil(%d) not after now=%d", limit, n.now))
}

// nextHeaderEvent returns the earliest future cycle at which a pending
// router decision completes (a header sitting at a frontier router whose
// RouterDelay has not yet elapsed), if any.
//
//lint:hotpath
func (n *Network) nextHeaderEvent() (int64, bool) {
	var min int64
	found := false
	for _, w := range n.worms {
		if w.routed || len(w.path) == 0 {
			continue
		}
		if w.entered(len(w.path)-1) == 0 || w.headerReadyAt <= n.now {
			continue
		}
		if !found || w.headerReadyAt < min {
			min, found = w.headerReadyAt, true
		}
	}
	return min, found
}

// skipTo jumps the clock from a fully-stalled cycle to target, crediting
// every skipped cycle exactly as the per-cycle kernel would have:
// stats.Cycles and the fairness rotation advance, each blocked header
// accrues BlockedCycles (and its per-cycle Blocked observer event), and
// each inject-waiting worm accrues InjectWaitCycles. Callable only when
// the preceding cycle made no progress, which guarantees every skipped
// cycle is an identical stall.
//
//lint:hotpath
func (n *Network) skipTo(target int64) {
	delta := target - n.now
	n.stats.Cycles += delta
	n.rotation += delta
	if n.obs != nil {
		// Replay the per-cycle Blocked events the reference kernel
		// would have emitted, in its order: cycles ascending, worms in
		// creation order within a cycle.
		for c := n.now + 1; c <= target; c++ {
			for _, w := range n.worms {
				if w.waitState == waitBlocked && w.waitEpoch == n.epoch {
					n.obs.Blocked(c, w, w.blockCand, w.blockHold)
				}
			}
		}
	}
	for _, w := range n.worms {
		if w.waitEpoch != n.epoch {
			continue
		}
		switch w.waitState {
		case waitBlocked:
			w.BlockedCycles += delta
		case waitInject:
			w.InjectWaitCycles += delta
		}
	}
	n.now = target
}

// stepFast is the stall-aware kernel: identical phase structure to
// stepReference, but worms whose flits provably cannot move skip their
// scan, and headers in a cached blocked/inject-wait state skip
// re-routing. It also records whether the cycle made progress, which
// StepUntil uses to decide whether the clock may jump.
//
//lint:hotpath
func (n *Network) stepFast() {
	n.now++
	n.stats.Cycles++
	n.progress = false
	n.faultStall = false
	// Phase A rotates its starting worm for fairness on shared physical
	// links; without link sharing, worm order in this phase is
	// immaterial (channels are owned exclusively and acquisition happens
	// in phase B).
	if k := len(n.worms); k > 0 {
		start := int(n.rotation % int64(k))
		n.rotation++
		n.moveWorms(n.worms[start:])
		n.moveWorms(n.worms[:start])
	}
	for _, w := range n.worms {
		n.routeHeaderFast(w)
	}
	if len(n.completed) > 0 {
		n.reap()
	}
}

// moveWorms runs phase A over ws in order, skipping sleepers. A fabric
// with no fault model and no shared physical links can never refuse a
// flit, so it takes the check-free loop; every other fabric takes the
// gated one.
//
//lint:hotpath
func (n *Network) moveWorms(ws []*Worm) {
	if n.faults == nil && n.lg == nil {
		for _, w := range ws {
			if n.asleep[w.slot] == 0 {
				n.moveFlitsUngated(w)
			}
		}
		return
	}
	for _, w := range ws {
		if n.asleep[w.slot] == 0 {
			n.moveFlitsFast(w)
		}
	}
}

// moveFlitsUngated is moveFlitsFast for fabrics where every channel
// accepts a flit whenever its buffer has room (no FaultModel, no
// LinkGrouper): no chanUp or linkFree call, each passed counter read
// once with the upstream count carried down the live window, and the
// flit-hops credited once per worm. Its moves, releases, headerReadyAt
// stamps and sleep verdict are exactly moveFlitsFast's on such a fabric.
//
//lint:hotpath
func (n *Network) moveFlitsUngated(w *Worm) {
	if w.done || len(w.path) == 0 {
		return
	}
	buf, passed := n.cfg.BufFlits, w.passed
	last, tail := len(w.path)-1, w.tail
	hops := int64(0)
	// cur is passed[i] and up is entered(i) = passed[i-1] (the injected
	// count at i == 0), for i walking from last down to tail.
	cur, up := passed[last], w.injected
	if last > 0 {
		up = passed[last-1]
	}
	// Consumption at the destination interface.
	if w.routed && up > cur {
		cur++
		passed[last] = cur
		hops++
		if cur == w.flits {
			n.release(w, last)
			w.done = true
			w.ArrivedAt = n.now
			// Indexed push: Send reserved cap(completed) >= len(worms).
			k := len(n.completed)
			n.completed = n.completed[:k+1]
			n.completed[k] = w
		}
	}
	// Interior hops, downstream first: next is passed[i+1] after this
	// cycle's move out of channel i+1, so a vacated slot is refilled in
	// the same cycle.
	for i := last - 1; i >= tail; i-- {
		next := cur
		cur = up
		up = w.injected
		if i > 0 {
			up = passed[i-1]
		}
		if up > cur && cur-next < buf {
			cur++
			passed[i] = cur
			hops++
			if cur == 1 && i+1 == last && !w.routed {
				// The header flit just reached the frontier router.
				w.headerReadyAt = n.now + n.cfg.RouterDelay
			}
			if cur == w.flits {
				n.release(w, i)
			}
		}
	}
	// Injection from the source interface. A pending injection means
	// nothing is released yet (tail == 0), so cur is passed[0] here.
	if w.injected < w.flits && w.injected-cur < buf {
		w.injected++
		hops++
		if w.injected == 1 {
			w.InjectedAt = n.now
			if last == 0 && !w.routed {
				w.headerReadyAt = n.now + n.cfg.RouterDelay
			}
		}
	}
	if hops > 0 {
		n.stats.FlitHops += hops
		n.progress = true
	} else {
		n.asleep[w.slot] = 1
	}
}

// moveFlitsFast is moveFlits plus scheduling bookkeeping: it marks the
// worm asleep when no flit could move for buffer-occupancy reasons
// (occupancy is worm-local, so the verdict holds until the worm acquires
// a channel), and records fabric-wide progress. A move refused only by
// physical-link sharing does not put the worm to sleep — the link may be
// free next cycle. Channels before w.tail are empty, so the scan stops
// there.
//
//lint:hotpath
func (n *Network) moveFlitsFast(w *Worm) {
	if w.done || len(w.path) == 0 {
		return
	}
	moved, linkBusy := false, false
	last := len(w.path) - 1
	// Consumption at the destination interface (exits the fabric; no
	// physical link consumed).
	if w.routed && w.occ(last) > 0 {
		moved = true
		w.passed[last]++
		n.stats.FlitHops++
		if w.passed[last] == w.flits {
			n.release(w, last)
			w.done = true
			w.ArrivedAt = n.now
			// Indexed push: Send reserved cap(completed) >= len(worms),
			// and at most every in-flight worm completes per cycle.
			k := len(n.completed)
			n.completed = n.completed[:k+1]
			n.completed[k] = w
		}
	}
	// Interior hops.
	for i := last - 1; i >= w.tail; i-- {
		if w.occ(i) > 0 && w.occ(i+1) < n.cfg.BufFlits {
			// A fault-refused move is transient (the channel may come back
			// up next cycle): treat it like a busy link, not a sleepable
			// stall, and veto StepUntil's cycle-skipping this cycle.
			if !n.chanUp(w.path[i+1]) {
				n.faultStall = true
				linkBusy = true
				continue
			}
			if !n.linkFree(w.path[i+1]) {
				linkBusy = true
				continue
			}
			moved = true
			w.passed[i]++
			n.stats.FlitHops++
			if w.entered(i+1) == 1 && i+1 == last && !w.routed {
				// The header flit just reached the frontier router.
				w.headerReadyAt = n.now + n.cfg.RouterDelay
			}
			if w.passed[i] == w.flits {
				n.release(w, i)
			}
		}
	}
	// Injection from the source interface.
	if w.injected < w.flits && w.occ(0) < n.cfg.BufFlits {
		if !n.chanUp(w.path[0]) {
			n.faultStall = true
			linkBusy = true
		} else if n.linkFree(w.path[0]) {
			moved = true
			w.injected++
			n.stats.FlitHops++
			if w.injected == 1 {
				w.InjectedAt = n.now
				if last == 0 && !w.routed {
					w.headerReadyAt = n.now + n.cfg.RouterDelay
				}
			}
		} else {
			linkBusy = true
		}
	}
	if moved {
		n.progress = true
	} else if !linkBusy {
		// The worm is only scanned while awake, so the flag can never be
		// set on entry; a busy link leaves it awake for a retry next cycle.
		n.asleep[w.slot] = 1
	}
}

// routeHeaderFast is routeHeader with a cache: once a header is blocked
// (or inject-waiting), the routing decision cannot change until some
// channel changes hands, so the cached verdict — keyed on the network's
// ownership epoch — is replayed at O(1) instead of re-running the
// topology's routing function every cycle.
//
//lint:hotpath
func (n *Network) routeHeaderFast(w *Worm) {
	if w.done || w.routed {
		return
	}
	if w.waitState == waitUnreachable {
		return // terminal: dead channels never heal
	}
	if len(w.path) == 0 {
		if w.waitState == waitInject && w.waitEpoch == n.epoch {
			w.InjectWaitCycles++
			return
		}
		// Compete for the node's single injection channel.
		c := n.inject[w.Src]
		if n.faults != nil && n.faults.Dead(c) {
			n.markUnreachable(w, c)
			return
		}
		if n.owner[c] < 0 {
			n.acquire(w, c)
		} else {
			w.InjectWaitCycles++
			w.waitState = waitInject
			w.waitEpoch = n.epoch
		}
		return
	}
	last := len(w.path) - 1
	if w.entered(last) == 0 || n.now < w.headerReadyAt {
		return // header flit not yet at the frontier, or still routing
	}
	if w.waitState == waitBlocked && w.waitEpoch == n.epoch {
		w.BlockedCycles++
		if n.obs != nil {
			n.obs.Blocked(n.now, w, w.blockCand, w.blockHold)
		}
		return
	}
	cands := n.routeCands(w)
	for _, c := range cands {
		if n.owner[c] < 0 {
			n.acquire(w, c)
			return
		}
	}
	if len(cands) == 0 {
		if n.faults != nil {
			n.markUnreachable(w, w.path[last])
			return
		}
		n.noRouteBug(w, last)
	}
	w.BlockedCycles++
	w.blockCand, w.blockHold = n.blame(cands)
	w.waitState = waitBlocked
	w.waitEpoch = n.epoch
	if n.obs != nil {
		n.obs.Blocked(n.now, w, w.blockCand, w.blockHold)
	}
}

// stepReference advances the simulation by one cycle with the original
// straight-line kernel: one full pass over all worms per cycle, no
// caching, no cycle-skipping. Kept as the oracle the differential and
// fuzz suites compare KernelFast against.
func (n *Network) stepReference() {
	n.now++
	n.stats.Cycles++
	n.progress = true
	if k := len(n.worms); k > 0 {
		start := int(n.rotation % int64(k))
		n.rotation++
		for i := 0; i < k; i++ {
			n.moveFlits(n.worms[(start+i)%k])
		}
	}
	for _, w := range n.worms {
		n.routeHeader(w)
	}
	if len(n.completed) > 0 {
		n.reap()
	}
}

// moveFlits advances the worm's flits one channel downstream-first, so a
// flit vacating a buffer makes room for its upstream neighbour within the
// same cycle (full pipelining at one flit per channel per cycle).
func (n *Network) moveFlits(w *Worm) {
	if w.done || len(w.path) == 0 {
		return
	}
	last := len(w.path) - 1
	// Consumption at the destination interface (exits the fabric; no
	// physical link consumed).
	if w.routed && w.occ(last) > 0 {
		w.passed[last]++
		n.stats.FlitHops++
		if w.passed[last] == w.flits {
			n.release(w, last)
			w.done = true
			w.ArrivedAt = n.now
			n.completed = append(n.completed, w)
		}
	}
	// Interior hops. chanUp is checked before linkFree so a fault-refused
	// flit does not claim the physical link (identical order to the fast
	// kernel).
	for i := last - 1; i >= 0; i-- {
		if w.occ(i) > 0 && w.occ(i+1) < n.cfg.BufFlits && n.chanUp(w.path[i+1]) && n.linkFree(w.path[i+1]) {
			w.passed[i]++
			n.stats.FlitHops++
			if w.entered(i+1) == 1 && i+1 == last && !w.routed {
				// The header flit just reached the frontier router.
				w.headerReadyAt = n.now + n.cfg.RouterDelay
			}
			if w.passed[i] == w.flits {
				n.release(w, i)
			}
		}
	}
	// Injection from the source interface.
	if w.injected < w.flits && w.occ(0) < n.cfg.BufFlits && n.chanUp(w.path[0]) && n.linkFree(w.path[0]) {
		w.injected++
		n.stats.FlitHops++
		if w.injected == 1 {
			w.InjectedAt = n.now
			if last == 0 && !w.routed {
				w.headerReadyAt = n.now + n.cfg.RouterDelay
			}
		}
	}
}

// routeHeader attempts one channel acquisition for the worm's header.
func (n *Network) routeHeader(w *Worm) {
	if w.done || w.routed {
		return
	}
	if w.waitState == waitUnreachable {
		return // terminal: dead channels never heal
	}
	if len(w.path) == 0 {
		// Compete for the node's single injection channel.
		c := n.inject[w.Src]
		if n.faults != nil && n.faults.Dead(c) {
			n.markUnreachable(w, c)
			return
		}
		if n.owner[c] < 0 {
			n.acquire(w, c)
		} else {
			w.InjectWaitCycles++
		}
		return
	}
	last := len(w.path) - 1
	if w.entered(last) == 0 || n.now < w.headerReadyAt {
		return // header flit not yet at the frontier, or still routing
	}
	cands := n.routeCands(w)
	for _, c := range cands {
		if n.owner[c] < 0 {
			n.acquire(w, c)
			return
		}
	}
	if len(cands) == 0 {
		if n.faults != nil {
			n.markUnreachable(w, w.path[last])
			return
		}
		n.noRouteBug(w, last)
	}
	w.BlockedCycles++
	if n.obs != nil {
		c, h := n.blame(cands)
		n.obs.Blocked(n.now, w, c, h)
	}
}

// blame picks the channel named in a Blocked report. All candidates are
// owned; the report names the one held by the oldest worm, because under
// oldest-first arbitration the oldest holder heads the blocking chain and
// is the actual culprit — naming the first preference regardless of
// holder (the previous rule) misattributed stalls on adaptive topologies
// whose preferred candidate merely queued behind a younger worm. Ties on
// holder resolve to the earliest candidate in preference order, keeping
// the report deterministic.
func (n *Network) blame(cands []ChannelID) (ChannelID, *Worm) {
	c, h := cands[0], n.slots[n.owner[cands[0]]]
	for _, cc := range cands[1:] {
		if o := n.slots[n.owner[cc]]; o.ID < h.ID {
			c, h = cc, o
		}
	}
	return c, h
}

// noRouteBug reports a topology that returned no routing candidates on
// a healthy fabric — a programming error. Outlined so the hot routing
// loop carries no fmt call.
func (n *Network) noRouteBug(w *Worm, last int) {
	panic(fmt.Sprintf("wormhole: topology returned no route from %s for %d->%d",
		n.topo.DescribeChannel(w.path[last]), w.Src, w.Dst))
}

func (n *Network) acquire(w *Worm, c ChannelID) {
	n.owner[c] = w.slot
	n.owned++
	w.path = append(w.path, c)
	w.passed = append(w.passed, 0)
	if c == n.eject[w.Dst] {
		w.routed = true
	}
	// Ownership changed: every cached routing verdict is stale, and this
	// worm has a new channel its header can move into.
	n.epoch++
	n.progress = true
	n.asleep[w.slot] = 0
	w.waitState = waitNone
	if n.obs != nil {
		n.obs.Acquire(n.now, w, c)
	}
}

// release frees path[i], which must be the worm's first unreleased
// channel (i == w.tail; see Worm.tail), and advances the live window.
func (n *Network) release(w *Worm, i int) {
	c := w.path[i]
	if n.owner[c] != w.slot {
		n.badRelease(w, c)
	}
	n.owner[c] = -1
	n.owned--
	w.tail = i + 1
	n.epoch++
	if n.obs != nil {
		n.obs.Release(n.now, w, c)
	}
}

// badRelease reports a release of a channel the worm does not own — a
// kernel bug. Outlined so the hot release paths carry no fmt call.
func (n *Network) badRelease(w *Worm, c ChannelID) {
	panic(fmt.Sprintf("wormhole: releasing channel %s not owned by worm %d", n.topo.DescribeChannel(c), w.ID))
}

// reap removes completed worms, preserving creation order of the rest,
// then fires arrival callbacks in completion order. With recycling
// enabled, each worm is pooled for reuse once its callback and Complete
// event have fired — unless an observer is attached: observers may
// legitimately retain the *Worm passed to Complete (trace.Timeline and
// trace.BlockLog do), and reusing it would scribble over their records.
// With an observer, completed worms are simply left to the garbage
// collector, so SetRecycling(true)+SetObserver is safe, just not pooled.
//
//lint:hotpath
func (n *Network) reap() {
	k := 0
	for _, w := range n.worms {
		if !w.done {
			n.worms[k] = w
			k++
		}
	}
	clear(n.worms[k:])
	n.worms = n.worms[:k]
	// n.completed stays populated while callbacks run: an arrival
	// callback may Send, and Send's free-list reservation counts the
	// drained-but-unpooled worms still listed here.
	for di := 0; di < len(n.completed); di++ {
		w := n.completed[di]
		n.freeSlot(w.slot)
		n.stats.Worms++
		n.stats.BlockedCycles += w.BlockedCycles
		n.stats.InjectWaitCycles += w.InjectWaitCycles
		if n.obs != nil {
			n.obs.Complete(n.now, w)
		}
		if w.onArrive != nil {
			w.onArrive(w, n.now)
		}
		if n.recycle && n.obs == nil {
			n.completed[di] = nil
			// Indexed push: Send and SetRecycling reserve cap(free) for
			// every in-flight and drained worm.
			f := len(n.free)
			n.free = n.free[:f+1]
			n.free[f] = w
		}
	}
	clear(n.completed)
	n.completed = n.completed[:0]
}

// RunUntilIdle steps until no worms are in flight, up to maxCycles. It
// returns the number of cycles stepped and an error on timeout (which in
// a correct deadlock-free topology indicates a routing bug) or as soon as
// a fault-induced unreachable destination is recorded (see Err) — a
// frozen worm never completes, so waiting out the deadline would be
// pointless.
func (n *Network) RunUntilIdle(maxCycles int64) (int64, error) {
	start := n.now
	for len(n.worms) > 0 {
		if n.err != nil {
			return n.now - start, n.err
		}
		if n.now-start >= maxCycles {
			return n.now - start, fmt.Errorf("wormhole: network not idle after %d cycles (%d worms in flight)", maxCycles, len(n.worms))
		}
		n.StepUntil(start + maxCycles)
	}
	if n.err != nil {
		return n.now - start, n.err
	}
	return n.now - start, nil
}

// DeadlockReport renders a deterministic diagnosis of a stuck fabric:
// the hottest blocked channel (the one the most frozen headers want,
// ties to the lowest channel ID), followed by up to max lines in worm
// creation order describing what the active worms are waiting for. Worms
// stuck for the same reason on the same channel (a convoy blocked on one
// held link, or a queue waiting to inject at one node) are collapsed
// into a single line carrying the count, so the report stays readable
// when hundreds of worms pile up behind one failure. It is read-only and
// safe to call at any cycle; drivers call it when a watchdog fires so
// the error names the culprits instead of just "timed out".
func (n *Network) DeadlockReport(max int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d worms in flight at cycle %d", len(n.worms), n.now)
	// The per-channel waiting-header histogram is cached on the Network
	// and cleared lazily: at 1M+ channels a fresh allocation per watchdog
	// fire would turn a diagnostic into a multi-MB allocation.
	if len(n.dlWaiters) < n.topo.NumChannels() {
		n.dlWaiters = make([]int32, n.topo.NumChannels())
	} else {
		clear(n.dlWaiters)
	}
	waiters := n.dlWaiters
	type entry struct {
		text string
		more int // additional worms collapsed into this line
	}
	var entries []entry
	// Dedup is keyed by (reason kind, channel); the map is only ever
	// indexed, never ranged, so report order stays creation order.
	index := make(map[int64]int)
	line := func(kind int64, c ChannelID, format string, args ...any) {
		if kind >= 0 {
			key := kind<<32 | int64(c)
			if i, ok := index[key]; ok {
				entries[i].more++
				return
			}
			index[key] = len(entries)
		}
		entries = append(entries, entry{text: fmt.Sprintf(format, args...)})
	}
	const (
		unique      int64 = -1 // never collapsed
		kindInject  int64 = 0
		kindBlocked int64 = 1
	)
	for _, w := range n.worms {
		switch {
		case w.waitState == waitUnreachable:
			line(unique, 0, "worm %d (%d->%d): unreachable, frozen holding %d channels", w.ID, w.Src, w.Dst, len(w.path))
		case len(w.path) == 0:
			c := n.inject[w.Src]
			if h := n.owner[c]; h >= 0 {
				waiters[c]++
				line(kindInject, c, "worm %d (%d->%d): waiting to inject; %s held by worm %d", w.ID, w.Src, w.Dst, n.topo.DescribeChannel(c), n.slots[h].ID)
			} else {
				line(unique, 0, "worm %d (%d->%d): not yet injected", w.ID, w.Src, w.Dst)
			}
		case w.routed:
			line(unique, 0, "worm %d (%d->%d): routed, draining %d channels", w.ID, w.Src, w.Dst, len(w.path))
		case w.entered(len(w.path)-1) == 0 || n.now < w.headerReadyAt:
			// The worm owns its frontier channel but flits have not entered
			// it (router delay, or a fault gate refusing them); it is what
			// the worm is waiting on, so it counts toward the hot channel.
			c := w.path[len(w.path)-1]
			waiters[c]++
			line(unique, 0, "worm %d (%d->%d): header in flight toward %s", w.ID, w.Src, w.Dst, n.topo.DescribeChannel(c))
		default:
			cands := n.routeCands(w)
			if len(cands) == 0 {
				line(unique, 0, "worm %d (%d->%d): no live routing candidate at %s", w.ID, w.Src, w.Dst, n.topo.DescribeChannel(w.path[len(w.path)-1]))
				break
			}
			free := ChannelID(-1)
			for _, c := range cands {
				if n.owner[c] >= 0 {
					waiters[c]++
				} else if free < 0 {
					free = c
				}
			}
			if free >= 0 {
				line(unique, 0, "worm %d (%d->%d): header ready, can advance into %s", w.ID, w.Src, w.Dst, n.topo.DescribeChannel(free))
				break
			}
			cand, hold := n.blame(cands)
			line(kindBlocked, cand, "worm %d (%d->%d): blocked; wants %s held by worm %d", w.ID, w.Src, w.Dst, n.topo.DescribeChannel(cand), hold.ID)
		}
	}
	lines := 0
	for _, e := range entries {
		if lines < max {
			b.WriteString("\n  ")
			b.WriteString(e.text)
			if e.more > 0 {
				fmt.Fprintf(&b, " (+%d more worms on this channel)", e.more)
			}
		}
		lines++
	}
	if lines > max {
		fmt.Fprintf(&b, "\n  ... and %d more", lines-max)
	}
	hot, hotCount := ChannelID(-1), int32(0)
	for c, k := range waiters {
		if k > hotCount {
			hot, hotCount = ChannelID(c), k
		}
	}
	if hot >= 0 {
		fmt.Fprintf(&b, "\n  hottest blocked channel: %s (%d waiting headers)", n.topo.DescribeChannel(hot), hotCount)
	}
	return b.String()
}

// Quiesced verifies the post-run invariants: no active worms and every
// channel released. Tests call this to prove conservation (flits injected
// were all consumed and nothing leaked). It is O(1) on a clean fabric:
// the owner table is scanned only to name a leaked channel.
func (n *Network) Quiesced() error {
	if len(n.worms) != 0 {
		return fmt.Errorf("wormhole: %d worms still active", len(n.worms))
	}
	if n.owned == 0 {
		return nil
	}
	for c, s := range n.owner {
		if s >= 0 {
			return fmt.Errorf("wormhole: channel %s still owned by worm %d", n.topo.DescribeChannel(ChannelID(c)), n.slots[s].ID)
		}
	}
	return fmt.Errorf("wormhole: %d channels counted as owned, but the owner table holds none", n.owned)
}
