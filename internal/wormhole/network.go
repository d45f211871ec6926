package wormhole

import (
	"fmt"
	"math/bits"
	"slices"
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
	// the clock over cycles in which nothing else can happen. On fabrics
	// where no channel can refuse a flit (no LinkGrouper, and no
	// FaultModel or one that reports OnlyDead) a worm moves in closed
	// form once its motion is a pure function of its own counters: a
	// routed worm whose every live stage moves streams, and, when
	// BufFlits > RouterDelay, a worm whose header is still crossing the
	// fabric moves with period RouterDelay+1. Such a worm wakes the kernel
	// only to arrive or to make its header's next routing decision; its
	// stages finishing are settled inside the clock jumps over them. It
	// is returned to per-cycle stepping (unparked) when its header blocks
	// or freezes, reaches its destination, or the worm is cancelled. It is
	// observably equivalent to KernelReference (identical Stats, per-worm
	// timings and observer event streams), which the differential and
	// fuzz suites in kernel_diff_test.go enforce.
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
	eject  ChannelID // Dst's ejection channel, the path's last
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

	// Fast-kernel scheduling state. The sleep state itself lives in
	// Network.asleep, a flat slice indexed by slot, so the per-cycle scan
	// touches one byte per worm instead of a whole Worm struct. slot is
	// the worm's index in the network's slot table for as long as it is
	// in flight. waitState caches the header's outcome (blocked on an owned
	// channel, or waiting for the injection port) and is valid while
	// waitEpoch matches the network's ownership epoch — i.e. until any
	// acquire, release or park anywhere could have changed the answer —
	// and the clock has not reached waitUntil, the first cycle in which a
	// parked owner could release a channel the verdict waits on (see
	// freedAt).
	slot      int32
	waitState uint8
	waitEpoch int64
	waitUntil int64
	blockCand ChannelID
	blockHold *Worm
	// due is a parked worm's next phase-A event cycle, or never, and wake
	// the next cycle in which it acts (see park). parkAt is the origin of
	// its virtual clock (see vclock): each unfinished counter holds its
	// true value minus the clock, the cycles the worm's stages have moved
	// since parkAt.
	due    int64
	wake   int64
	parkAt int64
}

// never is the due cycle of a parked worm with no phase-A event ahead.
const never int64 = 1<<63 - 1

// Values of Network.asleep.
const (
	awake    uint8 = iota
	sleeping       // cannot move a flit until it next acquires a channel
	parked         // moves in closed form; visited only at its events
)

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
	owner []int32
	owned int // channels with owner >= 0, so Quiesced need not scan owner

	// Slot table: slots[w.slot] == w for every in-flight worm; freeSlots
	// holds recycled indices (cap always >= len(slots), so reap can push
	// by index). asleep[s] is slot s's worm's phase-A state: awake,
	// sleeping or parked.
	slots     []*Worm
	freeSlots []int32
	asleep    []uint8

	worms     []*Worm // active, in creation order
	completed []*Worm // filled during a Step, drained at its end
	nextID    int64
	routeBuf  []ChannelID
	stats     Stats
	obs       Observer

	// Virtual-channel support (nil lg = every channel has its own link).
	lg        LinkGrouper
	linkStamp []int64 // cycle a link last carried a flit
	rotation  int64   // phase-A fairness rotation among worms

	// Kernel scheduling state (see DESIGN.md §4, "kernel scheduling").
	kernel Kernel
	epoch  int64 // bumped on every acquire, release and park; keys waitState caches
	// lastMove is the last cycle in which a flit moved, and hops the
	// flit-hop count (as Stats reports it) at the end of the last cycle
	// stepped or skipped: a cycle moved a flit exactly when it grew hops.
	lastMove int64
	hops     int64
	// Over parked worms' moving stages, parkRate is their count and
	// parkSum the sum of their worms' parkAt: each such stage has moved
	// one flit per cycle since, so parkRate·now − parkSum flit-hops are
	// not yet in stats.
	parkRate int64
	parkSum  int64

	// Fault layer (see SetFaults). deadFn and frouter are cached from
	// faults/topo so routing does not rebind method values per call.
	faults  FaultModel
	deadFn  func(ChannelID) bool
	frouter FaultRouter
	// ungated is set when no channel can refuse a flit: no LinkGrouper,
	// and no fault model or one that reports OnlyDead. It selects phase
	// A's loop (see moveWorms) and is fixed while worms are in flight.
	ungated bool
	// faultStall: in the last stepped cycle a flit was refused by Up()
	// or a header was frozen unreachable, so the clock must not jump.
	faultStall bool
	// frozen counts the in-flight worms frozen unreachable, and first
	// names the one that froze while none was: the fabric error (Err) is
	// formatted from it on demand and cached in err.
	frozen int
	first  frozenWorm
	err    error

	// Worm pooling (see SetRecycling). A fresh worm's path and passed are
	// sized to its own route when the topology knows its hop counts
	// (dist), and otherwise to longest, the longest path a worm has built
	// on this network, so they grow by append only past it.
	recycle bool
	free    []*Worm
	dist    distancer
	longest int

	// onStep, when set, runs at the end of every stepped cycle. It is a
	// test hook (see export_test.go): nothing in the package sets it.
	onStep func()
}

// distancer is implemented by topologies that know the hop count of
// the route between two nodes (mesh, torus, BMIN, butterfly): a worm
// routed between them holds that many channels plus its injection and
// ejection ones.
type distancer interface{ Distance(a, b int) int }

// frozenWorm is what Err's text names: the first worm frozen while no
// other was, and the channel at which it found no live candidate. It is
// copied out of the worm, which a driver may cancel and recycle before
// Err is called.
type frozenWorm struct {
	id       int64
	src, dst NodeID
	at       ChannelID
}

// New creates a network over the given topology. It panics on an invalid
// config, which is a programming error, not an operational condition.
func New(topo Topology, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{
		topo:  topo,
		cfg:   cfg,
		owner: make([]int32, topo.NumChannels()),
	}
	for i := range n.owner {
		n.owner[i] = -1
	}
	if lg, ok := topo.(LinkGrouper); ok {
		n.lg = lg
		n.linkStamp = make([]int64, lg.NumLinks())
		for i := range n.linkStamp {
			n.linkStamp[i] = -1
		}
	}
	n.ungated = n.lg == nil
	n.dist, _ = topo.(distancer)
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
// under the installed fault set, counts it, and, when no other worm is
// frozen, records it and its channel for Err. Setting faultStall ends
// StepUntil at this cycle, so both kernels observe the error at the same
// Now() and a recovery driver can cancel the worm in the cycle it froze.
func (n *Network) markUnreachable(w *Worm, where ChannelID) {
	w.waitState = waitUnreachable
	n.faultStall = true
	if n.frozen == 0 {
		n.first = frozenWorm{id: w.ID, src: w.Src, dst: w.Dst, at: where}
		n.err = nil
	}
	n.frozen++
}

// Topology returns the fabric's topology.
func (n *Network) Topology() Topology { return n.topo }

// Config returns the fabric parameters.
func (n *Network) Config() Config { return n.cfg }

// Now returns the current simulation time in cycles.
func (n *Network) Now() int64 { return n.now }

// Active returns the number of in-flight worms.
func (n *Network) Active() int { return len(n.worms) }

// Stats returns a snapshot of the aggregate counters. FlitHops includes
// the flits parked worms have moved up to Now, computed in O(1).
func (n *Network) Stats() Stats {
	s := n.stats
	s.FlitHops += n.parkRate*n.now - n.parkSum
	return s
}

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
// under any fault set. It also decides, once, which loop the fast kernel
// moves flits with: a model that reports OnlyDead (see DeadOnly) cannot
// refuse a flit, so worms stream and park as on a healthy fabric. Faults
// may only change while the fabric is idle, so that decision never
// changes under a parked worm.
func (n *Network) SetFaults(f FaultModel) {
	if len(n.worms) != 0 {
		panic("wormhole: SetFaults with active worms")
	}
	n.faults = f
	n.deadFn = nil
	n.frouter = nil
	n.ungated = n.lg == nil
	if f != nil {
		n.deadFn = f.Dead
		if fr, ok := n.topo.(FaultRouter); ok {
			n.frouter = fr
		}
		if d, ok := f.(DeadOnly); !ok || !d.OnlyDead() {
			n.ungated = false
		}
	}
}

// Faults returns the installed fault model, or nil on a healthy fabric.
func (n *Network) Faults() FaultModel { return n.faults }

// Err returns the first unrecoverable routing error — a worm whose every
// candidate channel is dead (unreachable destination under the installed
// fault set) — or nil. The stuck worm freezes in place, holding its
// channels; drivers are expected to check Err and abort, or to Cancel
// every frozen worm (see Unreachable). The error names the first worm
// that froze while no other was, and stays until no frozen worm is left.
// Its text is formatted on the first call and the error reused after.
func (n *Network) Err() error {
	if n.frozen == 0 {
		return nil
	}
	if n.err == nil {
		f := n.first
		n.err = fmt.Errorf("wormhole: worm %d (%d->%d) unreachable: no live routing candidate at %s (faulted fabric)",
			f.id, f.src, f.dst, n.topo.DescribeChannel(f.at))
	}
	return n.err
}

// Frozen returns the number of in-flight worms frozen unreachable: Err
// is non-nil exactly while it is positive. It costs O(1), so a recovery
// driver polls Unreachable only while it is.
func (n *Network) Frozen() int { return n.frozen }

// LastMove returns the last cycle in which a flit moved anywhere in the
// fabric — an injection, a hop or a consumption — or 0 if none has. It
// costs O(1), so a no-progress watchdog can poll it after every
// StepUntil.
func (n *Network) LastMove() int64 { return n.lastMove }

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

// alloc returns a zeroed worm for a route from src to dst, reusing a
// pooled one when available. The miss path (fresh) and the regrowth of
// a pooled worm too small for the route (routeSlices) are the pool's
// sanctioned allocations: steady state hits the free list and reuses
// the path/passed backing arrays.
//
//lint:hotpath
func (n *Network) alloc(src, dst NodeID) *Worm {
	k := len(n.free) - 1
	if k < 0 {
		return n.fresh(src, dst)
	}
	w := n.free[k]
	n.free[k] = nil
	n.free = n.free[:k]
	path, passed := w.path[:0], w.passed[:0]
	if size := n.routeCap(src, dst); cap(path) < size || cap(passed) < size {
		path, passed = routeSlices(size)
	}
	*w = Worm{path: path, passed: passed}
	return w
}

// fresh allocates a worm whose path and passed hold its route without
// growing: three allocations, the struct and its two slices.
func (n *Network) fresh(src, dst NodeID) *Worm {
	path, passed := routeSlices(n.routeCap(src, dst))
	return &Worm{path: path, passed: passed}
}

// routeCap is the capacity a worm's path and passed slices need for a
// route from src to dst. On a topology that reports its hop counts the
// route is Distance+2 channels long (a detour around dead channels
// grows it by append), and the capacity holds it rounded up to a power
// of two, as append's doubling would leave it: a pooled worm is
// reissued for whatever route the next Send has, and the slack lets it
// carry one up to that size without regrowing. On any other topology it
// is the longest path built on this network so far.
func (n *Network) routeCap(src, dst NodeID) int {
	if n.dist != nil {
		return 1 << bits.Len(uint(n.dist.Distance(int(src), int(dst))+1))
	}
	return n.longest
}

// routeSlices allocates empty path and passed slices of capacity size.
// Outlined so alloc's hot path carries no make.
func routeSlices(size int) ([]ChannelID, []int) {
	return make([]ChannelID, 0, size), make([]int, 0, size)
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
	w := n.alloc(src, dst)
	w.ID = n.nextID
	w.Src, w.Dst = src, dst
	w.eject = n.topo.EjectChannel(dst)
	w.Bytes = bytes
	w.Tag = tag
	w.flits = n.cfg.Flits(bytes)
	w.onArrive = onArrive
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
		n.asleep[s] = awake
		return s
	}
	s := int32(len(n.slots))
	n.slots = append(n.slots, w)
	n.asleep = append(n.asleep, awake)
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
// Stats.Cancelled); the flit-hops it made up to the cancel cycle stay
// counted, including those of a parked worm, which is unparked first.
// If the cancelled worm was frozen unreachable and no frozen worm
// remains, the recorded fabric error (Err) is cleared so the run can
// continue.
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
	if n.asleep[w.slot] == parked {
		n.unpark(w)
	}
	for w.tail < len(w.path) {
		n.release(w, w.tail)
	}
	n.worms = append(n.worms[:at], n.worms[at+1:]...)
	n.freeSlot(w.slot)
	// Ownership and the active set changed; cached verdicts are stale.
	n.epoch++
	n.stats.Cancelled++
	if w.waitState == waitUnreachable {
		n.frozen--
	}
	if n.recycle && n.obs == nil {
		n.free = append(n.free, w)
	}
}

// Unreachable appends to buf the active worms frozen because no live
// route toward their destination exists (see SetFaults), in creation
// order, and returns the extended slice. It scans every worm in flight,
// so recovery drivers call it after a StepUntil only while Frozen is
// positive; StepUntil returns in the cycle a worm froze. A frozen worm
// never completes on its own, so the driver must Cancel it and re-plan
// the delivery (retry elsewhere, or give the destination up).
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
// caller is expected to loop. Under KernelReference it steps one cycle.
// Under KernelFast it steps cycle after cycle and returns only when the
// driver may have work: a worm arrived (its callback may have scheduled
// an event), a fault-gated channel refused a flit or a worm froze
// unreachable (faultStall), the clock jumped over cycles the last of
// which moved no flit (a stall a no-progress monitor must see), or the
// clock reached limit. After every stepped cycle it applies one skip
// rule: the clock jumps to the cycle before the next one in which some
// worm can act (see nextAct), bulk-crediting Cycles, BlockedCycles and
// InjectWaitCycles for the skipped stretch and settling the parked
// worms' events in it (see skipTo; parked worms' flit-hops accrue in
// closed form, see Stats). A jump whose last cycle moved a flit leaves
// LastMove at the clock, so no monitor can act on it, and stepping goes
// on. Long software gaps, blocked stretches and draining bodies
// therefore cost O(events) instead of O(cycles × worms), and a cycle in
// which nothing can act is never stepped after one in which something
// did. At every return, ownership, Stats, Frozen and LastMove are
// exactly what per-cycle stepping would leave.
//
//lint:hotpath
func (n *Network) StepUntil(limit int64) {
	if limit <= n.now {
		n.badStepUntil(limit)
	}
	if n.kernel == KernelReference {
		n.stepReference()
		return
	}
	for {
		// faultStall: a flit was refused by a fault-gated channel, whose
		// Up() verdict can change at any future cycle, so "every skipped
		// cycle is an identical stall" does not hold; or a worm froze,
		// which its driver must see in this cycle.
		if n.stepFast() || n.faultStall || n.now >= limit {
			return
		}
		if t := n.nextAct(); t > n.now+1 {
			n.skipTo(min(t-1, limit))
			if n.lastMove != n.now || n.now >= limit {
				return
			}
		}
	}
}

// badStepUntil reports a StepUntil limit that is not in the future.
// Outlined from StepUntil so the hot entry point carries no fmt call.
func (n *Network) badStepUntil(limit int64) {
	panic(fmt.Sprintf("wormhole: StepUntil(%d) not after now=%d", limit, n.now))
}

// nextAct is StepUntil's skip rule, applied at the end of a stepped
// cycle that set no faultStall: it returns the first cycle after Now in
// which some worm can act, or never. A worm can act in the next cycle
// when it is awake with a channel to move flits in, or when its header
// or injection request will route instead of replaying a cached verdict
// (none cached, or the ownership epoch moved on). Otherwise it acts at
// its pending router decision (a header at its frontier whose
// RouterDelay has not elapsed), when its blocked or inject-wait verdict
// expires (waitUntil: a parked owner may then release a channel it waits
// on) or, parked, only at wake: its arrival once routed, its header's
// next routing decision while crossing. skipTo settles a parked worm's
// other events (the end of injection, each release): another
// worm sees a release only when its header routes, and a header waiting
// on the released channel acts at that cycle through its verdict's
// expiry. A frozen worm never acts. Every cycle before the returned one
// is therefore one in which no header routes and no flit moves but in
// closed form.
//
//lint:hotpath
func (n *Network) nextAct() int64 {
	soon, next := n.now+1, never
	for _, w := range n.worms {
		t := never
		switch n.asleep[w.slot] {
		case parked:
			// A crossing worm's header routes at wake, which a finished
			// phase B always leaves in the future.
			t = w.wake
		case awake:
			if len(w.path) > 0 {
				return soon
			}
			switch {
			case w.waitState == waitUnreachable:
				continue
			case w.waitState == waitInject && w.waitEpoch == n.epoch:
				t = w.waitUntil
			default:
				return soon
			}
		default:
			// Asleep: no flit can move until the worm acquires a channel,
			// so a worm that is not routed has its header at the frontier.
			switch {
			case w.routed || w.waitState == waitUnreachable:
				continue
			case w.headerReadyAt > n.now:
				t = w.headerReadyAt
			case w.waitState == waitBlocked && w.waitEpoch == n.epoch:
				t = w.waitUntil
			default:
				return soon
			}
		}
		if t < next {
			next = t
		}
	}
	return next
}

// skipTo jumps the clock to target over cycles in which no worm can act
// (see nextAct), crediting every skipped cycle exactly as the per-cycle
// kernel would have: stats.Cycles and the fairness rotation advance,
// each blocked header accrues BlockedCycles (and its per-cycle Blocked
// observer event), each inject-waiting worm accrues InjectWaitCycles,
// and parked worms' stages move. Every phase-A event a parked worm has
// in the stretch (the end of injection, each release) is settled by
// stepParked at its own cycle, with that cycle's credits. With an
// observer attached they are settled cycle by cycle, in the reference
// kernel's order (phase-A events in rotation order, then the cycle's
// replayed Blocked events); without one, worm by worm.
// A settled release frees no channel a cached verdict waits on (each
// verdict expires after target), so every verdict valid before the jump
// stays valid after it. The last-move cycle is target while any parked
// stage still moves, and otherwise the last cycle a settled stage moved.
//
//lint:hotpath
func (n *Network) skipTo(target int64) {
	from, epoch := n.now, n.epoch
	delta := target - from
	n.stats.Cycles += delta
	stop := from
	if n.obs != nil {
		for c := from + 1; c <= target; c++ {
			n.now = c
			if k := len(n.worms); k > 0 {
				start := int(n.rotation % int64(k))
				stop = max(stop, n.settle(n.worms[start:]), n.settle(n.worms[:start]))
			}
			n.rotation++
			for _, w := range n.worms {
				if w.waitState == waitBlocked && w.waitEpoch == epoch {
					n.obs.Blocked(c, w, w.blockCand, w.blockHold)
				}
			}
		}
	} else {
		n.rotation += delta
		for _, w := range n.worms {
			if n.asleep[w.slot] != parked {
				continue
			}
			for w.due <= target {
				n.now = w.due
				n.stepParked(w)
				stop = max(stop, n.now)
			}
		}
	}
	for _, w := range n.worms {
		if w.waitEpoch != epoch {
			continue
		}
		w.waitEpoch = n.epoch
		switch w.waitState {
		case waitBlocked:
			w.BlockedCycles += delta
		case waitInject:
			w.InjectWaitCycles += delta
		}
	}
	n.now = target
	if h := n.stats.FlitHops + n.parkRate*n.now - n.parkSum; h != n.hops {
		n.hops, n.lastMove = h, target
		if n.parkRate == 0 {
			n.lastMove = stop
		}
	}
}

// settle applies the events due this cycle of the parked worms in ws, in
// order, and returns this cycle if one was due, else 0.
//
//lint:hotpath
func (n *Network) settle(ws []*Worm) int64 {
	stop := int64(0)
	for _, w := range ws {
		if n.asleep[w.slot] == parked && w.due == n.now {
			n.stepParked(w)
			stop = n.now
		}
	}
	return stop
}

// noteMotion ends a stepped or skipped stretch: if the flit-hop count
// grew, a flit moved in the stretch's last cycle (a skipped stretch
// moves only parked stages, which move on every cycle of it), so that
// cycle becomes the last-move cycle.
//
//lint:hotpath
func (n *Network) noteMotion() {
	if h := n.stats.FlitHops + n.parkRate*n.now - n.parkSum; h != n.hops {
		n.hops, n.lastMove = h, n.now
	}
}

// stepFast is the stall-aware kernel: identical phase structure to
// stepReference, but worms whose flits provably cannot move skip their
// scan, and headers in a cached blocked/inject-wait state skip
// re-routing. It reports whether a worm arrived in the cycle.
//
//lint:hotpath
func (n *Network) stepFast() bool {
	n.now++
	n.stats.Cycles++
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
	n.noteMotion()
	arrived := len(n.completed) > 0
	if arrived {
		n.reap()
	}
	if n.onStep != nil {
		n.onStep()
	}
	return arrived
}

// moveWorms runs phase A over ws in order, skipping sleepers and parked
// worms that have no event due this cycle. A fabric on which no channel
// can refuse a flit (n.ungated: no shared physical links, and no fault
// model or only dead channels, which no worm holds) takes the check-free
// loop, the only one that parks; every other fabric takes the gated one.
//
//lint:hotpath
func (n *Network) moveWorms(ws []*Worm) {
	if n.ungated {
		for _, w := range ws {
			switch n.asleep[w.slot] {
			case awake:
				n.moveFlitsUngated(w)
			case parked:
				if w.due == n.now {
					n.stepParked(w)
				}
			}
		}
		return
	}
	for _, w := range ws {
		if n.asleep[w.slot] == awake {
			n.moveFlitsFast(w)
		}
	}
}

// moveFlitsUngated is moveFlitsFast for fabrics where every channel a
// worm holds accepts a flit whenever its buffer has room (no
// LinkGrouper, and no FaultModel or one whose only faults are dead
// channels, which a worm never acquires): no chanUp or linkFree call,
// each passed counter read once with the upstream count carried down the
// live window, and the flit-hops credited once per worm. Its moves,
// releases, headerReadyAt stamps and sleep verdict are exactly
// moveFlitsFast's on such a fabric. A worm whose motion has become a
// closed form is parked (see park): a routed worm that moved a flit on
// every live stage, or, when its frontier cannot fill before its
// header's next routing decision (BufFlits > RouterDelay), a crossing
// worm that moved one on every live stage but its frontier's exit before
// that decision. Under any other config a crossing worm steps per cycle
// and sleeps once its frontier fills.
//
//lint:hotpath
func (n *Network) moveFlitsUngated(w *Worm) {
	if w.done || len(w.path) == 0 {
		return
	}
	buf, passed := n.cfg.BufFlits, w.passed
	last, tail := len(w.path)-1, w.tail
	hops := int64(0)
	// live counts a routed worm's stages that could move this cycle: each
	// owned channel's exit, and injection while flits remain.
	live := int64(last - tail + 1)
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
			n.arrive(w)
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
	if w.injected < w.flits {
		live++
		if w.injected-cur < buf {
			w.injected++
			hops++
			if w.injected == 1 {
				w.InjectedAt = n.now
				if last == 0 && !w.routed {
					w.headerReadyAt = n.now + n.cfg.RouterDelay
				}
			}
		}
	}
	if hops == 0 {
		n.asleep[w.slot] = sleeping
		return
	}
	n.stats.FlitHops += hops
	if w.routed {
		if hops == live && !w.done {
			n.park(w)
		}
	} else if hops == live-1 && n.now <= w.headerReadyAt && int64(buf) > n.cfg.RouterDelay {
		n.park(w)
	}
}

// park takes a worm whose motion has become a closed form out of
// per-cycle stepping. It owns its channels exclusively and nothing can
// refuse its flits: the fabric is ungated, and SetFaults cannot change
// that while the worm is in flight. Its unfinished counters keep their
// parking-cycle values, parkAt records that cycle, and vclock gives the
// cycles each has moved since.
//
// A routed worm has just moved a flit on every live stage. So every
// occupancy stays as it is (each is at least 1, so injected >
// passed[tail] > … > passed[last]) and each counter x grows by one per
// cycle until it reaches flits, flits − x cycles after parking.
//
// A crossing worm, whose header has not reached the ejection channel,
// has just moved a flit on every live stage but its frontier's exit,
// which waits for the header's next hop. It parks only when BufFlits >
// RouterDelay: its header then enters a channel every RouterDelay+1
// cycles while its routing decisions find a free channel, its frontier
// takes at most RouterDelay+1 flits before that hop and so never fills,
// and every live stage moves on every cycle. Each hop adds the old
// frontier's exit as a stage.
//
// Either way the stages finish in path order, at most one per cycle:
// the end of injection, then each release, the last of a routed worm
// being its arrival. Those are its phase-A events (stepParked), due at
// w.due; its header's routing decisions stay in phase B (hopParked, or
// unpark when the header blocks or freezes). The flit-hops in between
// are credited through parkRate and parkSum. The worm wakes the kernel
// (w.wake, see nextAct) only at its arrival or its header's next routing
// decision; skipTo settles the events before it.
//
// Parking bumps the ownership epoch. A blocked or inject-wait verdict
// taken while this worm was awake has no expiry for its channels, since
// an awake worm releases only in stepped cycles; recomputing the verdict
// gives it one (see freedAt), so no release settled inside a jump can
// free a channel a header waits on.
//
//lint:hotpath
func (n *Network) park(w *Worm) {
	r := w.liveStages()
	n.parkRate += r
	n.parkSum += r * n.now
	n.asleep[w.slot] = parked
	n.epoch++
	w.parkAt = n.now
	w.due = n.nextDue(w)
	w.wake = w.headerReadyAt
	if w.routed {
		w.wake = n.now + int64(w.flits-w.passed[len(w.path)-1])
	}
}

// vclock returns how many cycles a parked worm's unfinished stages have
// moved since parkAt, as of Now.
//
//lint:hotpath
func (n *Network) vclock(w *Worm) int64 { return n.now - w.parkAt }

// nextDue returns a parked worm's next phase-A event: its next stage to
// finish. The stage furthest along finishes first: injection while flits
// remain to inject, else the exit of the tail channel. A crossing worm
// with no live stage has no event until its header hops.
//
//lint:hotpath
func (n *Network) nextDue(w *Worm) int64 {
	if w.liveStages() == 0 {
		return never
	}
	x := w.injected
	if x == w.flits {
		x = w.passed[w.tail]
	}
	return w.parkAt + int64(w.flits-x)
}

// stepParked applies a parked worm's event, a stage finishing this
// cycle. A stepped cycle applies it at the worm's place in phase A's
// rotation, so releases and arrivals reach the observer, phase B and
// reap exactly when and in the order the reference kernel produces them;
// skipTo applies the events of the cycles it jumps over, with the clock
// set to each event's cycle. The stage's flit-hops since parkAt are
// credited and its counter set to flits. The worm stays parked until its
// next event. An arrival, which is always stepped (it is the worm's
// wake), ends StepUntil: its callback may Send, and the new worm must
// compete for injection in the next cycle, not be skipped over.
//
//lint:hotpath
func (n *Network) stepParked(w *Worm) {
	n.stats.FlitHops += n.now - w.parkAt
	n.parkRate--
	n.parkSum -= w.parkAt
	if w.injected < w.flits {
		w.injected = w.flits
	} else {
		w.passed[w.tail] = w.flits
		if w.tail == len(w.path)-1 {
			n.arrive(w)
			return
		}
		n.release(w, w.tail)
	}
	w.due = n.nextDue(w)
}

// hopParked moves a parked crossing worm's header into c, the free
// candidate its routing decision took at headerReadyAt, with acquire's
// Acquire event and epoch bump. Into the destination's
// ejection channel the worm is unparked first; the per-cycle loop then
// parks it again as a routed worm once every stage moves. Otherwise it
// stays parked: the old frontier's exit becomes a stage that moves from
// the next cycle on, when the header enters c, and the header is ready
// to route again RouterDelay cycles after that. The new stage enters
// parkRate and parkSum credited from parkAt, so its counter starts at
// parkAt − now and the cycles between parkAt and now, in which it did
// not move, are taken back from stats.
//
//lint:hotpath
func (n *Network) hopParked(w *Worm, c ChannelID) {
	if c == w.eject {
		n.unpark(w)
		n.acquire(w, c)
		return
	}
	n.acquire(w, c)
	n.asleep[w.slot] = parked
	v := n.vclock(w)
	n.stats.FlitHops -= v
	n.parkRate++
	n.parkSum += w.parkAt
	w.passed[len(w.path)-2] = int(-v)
	w.headerReadyAt = n.now + 1 + n.cfg.RouterDelay
	w.wake = w.headerReadyAt
	w.due = n.nextDue(w)
}

// unpark returns a parked worm to per-cycle stepping at the current
// cycle: every unfinished counter x becomes x + vclock, the value the
// reference kernel holds (a stage that reached flits has already
// finished as an event), and the worm's moving stages leave parkRate and
// parkSum with their flit-hops credited to stats. The worm is awake, so
// StepUntil steps its next cycle instead of jumping over it. It runs
// when a crossing header finds every candidate owned or dead, when it
// takes its destination's ejection channel, and when the worm is
// cancelled.
//
//lint:hotpath
func (n *Network) unpark(w *Worm) {
	v, r := n.vclock(w), w.liveStages()
	n.stats.FlitHops += r * v
	n.parkRate -= r
	n.parkSum -= r * w.parkAt
	if w.injected < w.flits {
		w.injected += int(v)
	}
	end := len(w.path)
	if !w.routed {
		end-- // the frontier's exit waits for the header's next hop
	}
	for i := w.tail; i < end; i++ {
		w.passed[i] += int(v)
	}
	n.asleep[w.slot] = awake
}

// liveStages counts a parked worm's stages that still move flits: one
// per owned channel but a crossing worm's frontier, plus injection while
// flits remain to inject.
//
//lint:hotpath
func (w *Worm) liveStages() int64 {
	r := int64(len(w.path) - w.tail)
	if !w.routed {
		r--
	}
	if w.injected < w.flits {
		r++
	}
	return r
}

// arrive retires a worm whose tail flit was just consumed at its
// destination.
//
//lint:hotpath
func (n *Network) arrive(w *Worm) {
	n.release(w, len(w.path)-1)
	w.done = true
	w.ArrivedAt = n.now
	// Indexed push: Send reserved cap(completed) >= len(worms), and at
	// most every in-flight worm completes per cycle.
	k := len(n.completed)
	n.completed = n.completed[:k+1]
	n.completed[k] = w
}

// moveFlitsFast is moveFlits plus scheduling bookkeeping: it marks the
// worm asleep when no flit could move for buffer-occupancy reasons
// (occupancy is worm-local, so the verdict holds until the worm acquires
// a channel). A move refused only by
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
			n.arrive(w)
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
	if !moved && !linkBusy {
		// The worm is only scanned while awake, so the flag can never be
		// set on entry; a busy link leaves it awake for a retry next cycle.
		n.asleep[w.slot] = sleeping
	}
}

// routeHeaderFast is routeHeader with a cache: once a header is blocked
// (or inject-waiting), the routing decision cannot change until some
// channel changes hands, so the cached verdict is replayed at O(1)
// instead of re-running the topology's routing function every cycle. A
// verdict is keyed on the network's ownership epoch, which every
// acquire, release and park bumps, and is stale from waitUntil on, the
// first cycle in which a parked owner could release one of its channels
// in a jump's settled events (see freedAt).
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
		if w.waitState == waitInject && w.waitEpoch == n.epoch && n.now < w.waitUntil {
			w.InjectWaitCycles++
			return
		}
		// Compete for the node's single injection channel.
		c := n.topo.InjectChannel(w.Src)
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
			w.waitUntil = n.freedAt(c)
		}
		return
	}
	last := len(w.path) - 1
	if n.now < w.headerReadyAt {
		return // still routing
	}
	// A parked worm's counters lag, but once headerReadyAt has come its
	// header always sits at the frontier.
	isParked := n.asleep[w.slot] == parked
	if !isParked && w.entered(last) == 0 {
		return // header flit not yet at the frontier
	}
	if w.waitState == waitBlocked && w.waitEpoch == n.epoch && n.now < w.waitUntil {
		w.BlockedCycles++
		if n.obs != nil {
			n.obs.Blocked(n.now, w, w.blockCand, w.blockHold)
		}
		return
	}
	cands := n.routeCands(w)
	for _, c := range cands {
		if n.owner[c] < 0 {
			if isParked {
				n.hopParked(w, c)
			} else {
				n.acquire(w, c)
			}
			return
		}
	}
	if isParked {
		n.unpark(w) // blocked or frozen: the body now compresses behind the header
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
	w.waitUntil = never
	for _, c := range cands {
		w.waitUntil = min(w.waitUntil, n.freedAt(c))
	}
	if n.obs != nil {
		n.obs.Blocked(n.now, w, w.blockCand, w.blockHold)
	}
}

// freedAt returns a lower bound on the cycle in which channel c, owned
// by another worm, can be released without a stepped cycle: a counter
// grows by at most one flit per cycle, so a parked owner cannot release
// c before its count of flits out of c reaches the worm's flits. An
// owner that is not parked releases only in stepped cycles, where the
// release bumps the epoch, so c gives never; if it parks later, park
// bumps the epoch, and the verdict is retaken with this bound.
//
//lint:hotpath
func (n *Network) freedAt(c ChannelID) int64 {
	o := n.slots[n.owner[c]]
	if n.asleep[o.slot] != parked {
		return never
	}
	i := o.tail
	for o.path[i] != c {
		i++
	}
	x := int64(o.passed[i])
	if o.routed || i < len(o.path)-1 {
		x += n.vclock(o) // a crossing worm's frontier counter is exact
	}
	return n.now + int64(o.flits) - x
}

// stepReference advances the simulation by one cycle with the original
// straight-line kernel: one full pass over all worms per cycle, no
// caching, no cycle-skipping. Kept as the oracle the differential and
// fuzz suites compare KernelFast against.
func (n *Network) stepReference() {
	n.now++
	n.stats.Cycles++
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
	n.noteMotion()
	if len(n.completed) > 0 {
		n.reap()
	}
	if n.onStep != nil {
		n.onStep()
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
		c := n.topo.InjectChannel(w.Src)
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
	if len(w.path) > n.longest {
		n.longest = len(w.path)
	}
	if c == w.eject {
		w.routed = true
	}
	// Ownership changed: every cached routing verdict is stale, and this
	// worm has a new channel its header can move into.
	n.epoch++
	n.asleep[w.slot] = awake
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
// event have fired — unless an observer is attached: an observer may
// legitimately retain the *Worm passed to Complete, and reusing it would
// scribble over its records. This repository's observers (trace.Timeline
// among them) copy the fields they need by value, but the Observer
// contract does not require it of outside ones. With an observer,
// completed worms are simply left to the garbage
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
		if n.frozen > 0 {
			return n.now - start, n.Err()
		}
		if n.now-start >= maxCycles {
			return n.now - start, fmt.Errorf("wormhole: network not idle after %d cycles (%d worms in flight)", maxCycles, len(n.worms))
		}
		n.StepUntil(start + maxCycles)
	}
	return n.now - start, n.Err()
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
	// waits lists the channels waiting headers want, once per header and
	// channel; the hottest is the most frequent. It grows with the worms
	// in flight, not with the fabric.
	var waits []ChannelID
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
			line(unique, 0, "worm %d (%d->%d): unreachable, frozen holding %d channels", w.ID, w.Src, w.Dst, len(w.path)-w.tail)
		case len(w.path) == 0:
			c := n.topo.InjectChannel(w.Src)
			if h := n.owner[c]; h >= 0 {
				waits = append(waits, c)
				line(kindInject, c, "worm %d (%d->%d): waiting to inject; %s held by worm %d", w.ID, w.Src, w.Dst, n.topo.DescribeChannel(c), n.slots[h].ID)
			} else {
				line(unique, 0, "worm %d (%d->%d): not yet injected", w.ID, w.Src, w.Dst)
			}
		case w.routed:
			line(unique, 0, "worm %d (%d->%d): routed, draining %d channels", w.ID, w.Src, w.Dst, len(w.path)-w.tail)
		case w.entered(len(w.path)-1) == 0 || n.now < w.headerReadyAt:
			// The worm owns its frontier channel but flits have not entered
			// it (router delay, or a fault gate refusing them); it is what
			// the worm is waiting on, so it counts toward the hot channel.
			c := w.path[len(w.path)-1]
			waits = append(waits, c)
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
					waits = append(waits, c)
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
	// Sorted, a tie goes to the lowest channel ID.
	slices.Sort(waits)
	hot, hotCount, run := ChannelID(-1), 0, 0
	for i, c := range waits {
		run++
		if i > 0 && c != waits[i-1] {
			run = 1
		}
		if run > hotCount {
			hot, hotCount = c, run
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
