package mcastsim

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/plan"
	recov "repro/internal/recover"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// Engine is the one transfer state machine on one event queue: every
// group running on it shares the queue, the fabric and the backoff
// jitter stream. Drive it with Drive, passing the engine as the
// Monitor, or a Watchdog when no send has a deadline (Run,
// RunConcurrent and plain traffic).
type Engine struct {
	net    *wormhole.Network
	events *sim.EventQueue
	queue  sim.EventQueue // events, unless NewEngine was handed a queue
	rng    *sim.RNG
	// ports is the one-port ledger per fabric node, shared by every
	// group (NewEngine); nil when the engine's groups are node-disjoint
	// (Run, RunConcurrent, Open), whose positions then keep their own.
	ports []int64
	unBuf []*wormhole.Worm
	err   error // first internal fault

	// sends is the last spawn's plan, reused by the next. free holds
	// the settled transfers of served requests for newXfer to reuse
	// when recycle is set (NewEngine); slab holds transfers presized by
	// reserve and not yet handed out.
	sends   []plan.RepairSend
	free    []*xfer
	slab    []xfer
	recycle bool
}

// NewEngine returns an engine for concurrent groups on net (Serve). They
// share the event queue, the backoff jitter stream rng, and one
// one-port ledger per fabric node, so overlapping multicasts serialize
// their software sends on a common CPU timeline.
func NewEngine(net *wormhole.Network, events *sim.EventQueue, rng *sim.RNG) *Engine {
	return &Engine{net: net, events: events, rng: rng, ports: make([]int64, net.Topology().NumNodes()), recycle: true}
}

// newEngine returns an engine on a queue of its own with per-position
// one-port ledgers.
func newEngine(net *wormhole.Network, rng *sim.RNG) *Engine {
	e := &Engine{net: net, rng: rng}
	e.events = &e.queue
	return e
}

// reserve presizes the engine for groups of n positions in all that
// send no more than once to each: one pending event and one transfer per
// position. The plan buffer holds 2·log2(n) sends, which covers every
// node of an OPT, binomial or chain tree at the paper's t_hold/t_end
// ratios; a wider plan grows it once.
func (e *Engine) reserve(n int) {
	e.queue.Reserve(n)
	e.slab = make([]xfer, n)
	e.sends = make([]plan.RepairSend, 0, 2*bits.Len(uint(n)))
}

// Idled implements Monitor. Every outstanding send has a pending
// deadline event, which subsumes the no-progress watchdog.
func (e *Engine) Idled() {}

// Check implements Monitor. Worms the fault layer froze (no live route)
// are cancelled and their assignments routed into the retry/give-up
// path at once — a frozen worm never completes, and waiting out its
// deadline would just hold channels hostage. StepUntil returns in the
// cycle a worm froze, so each is cancelled in that cycle. Cancelling the
// last frozen worm clears the fabric error, so the run continues. The
// scan for frozen worms runs only while the fabric counts one, so Check
// costs O(1) on every other return.
//
//lint:hotpath
func (e *Engine) Check() error {
	if e.net.Frozen() > 0 {
		e.reclaim()
	}
	if e.err != nil {
		return e.err
	}
	if e.net.Frozen() > 0 {
		return e.unreachable()
	}
	return nil
}

// reclaim cancels every frozen worm and routes its assignment into the
// retry/give-up path. A worm this engine did not send is an internal
// fault.
func (e *Engine) reclaim() {
	e.unBuf = e.net.Unreachable(e.unBuf[:0])
	for _, w := range e.unBuf {
		x, ok := w.Tag.(*xfer)
		if !ok {
			e.fault(fmt.Errorf("frozen worm %d carries foreign tag %T", w.ID, w.Tag))
			break
		}
		x.g.fail(x, true)
	}
}

// unreachable reports the fabric error of a frozen worm this engine did
// not cancel. Outlined from Check so the hot path carries no fmt call.
func (e *Engine) unreachable() error {
	return fmt.Errorf("%w; %s", e.net.Err(), e.net.DeadlockReport(8))
}

// Err returns the engine's first internal fault, nil if none.
func (e *Engine) Err() error { return e.err }

// fault records the first internal error. A faulted engine issues no
// new sends, so the drive winds down and the caller reports the error.
func (e *Engine) fault(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Multicast is one multicast on an Engine: the source at chain index
// root owes delivery to every subscribed position of ch.
type Multicast struct {
	e     *Engine
	ch    chain.Chain
	tab   core.SplitTable
	root  int
	bytes int
	cfg   ReliableConfig
	t0    int64
	res   ReliableResult

	tSend, tRecv, tHold int64
	timeout             int64 // per-send deadline Slack*TEnd; 0 arms none
	backoff             int64 // base retransmission backoff
	churnLimit          int   // give-ups that switch planning to binomial

	pos      []slot
	pair     []bool  // k*k (from*k+to) give-up marks, allocated by the first give-up
	hop      []int32 // k*k HopDistance cache: 0 unknown, d+1 routable, -1 not
	xfers    []*xfer
	churn    int
	orphans  int // positions flagged orphan
	fallback bool
	grafts   int64

	// served makes the multicast a served request (Serve, Run,
	// RunConcurrent): a lost member is abandoned for good, and done,
	// if set, receives the outcome once every position is delivered or
	// abandoned.
	served   bool
	done     func(t int64, res ReliableResult)
	resolved int
}

// slot is one chain position's delivery and membership state.
type slot struct {
	nextFree   int64 // when the send port frees up, unless the engine keeps per-node ledgers
	down       int64 // 0: up; else outage end (fault.Forever: permanent)
	inflight   int16 // outstanding assignments targeting the position (at most one)
	delivered  bool
	wanted     bool // subscribed now
	ever       bool // subscribed at some point of the run
	orphan     bool // owed delivery, awaiting re-assignment
	joinOrphan bool // orphaned by a join/rejoin: its send counts as a graft
}

// xfer is one delivery assignment: from must get the message to to,
// which then becomes responsible for the ascending chain positions live
// (to included). The assignment survives retransmissions; seq
// invalidates the events of superseded issues. It is the Handler of its
// own events and the Tag of its worm.
//
// On an engine from NewEngine, a served request's transfers are
// recycled once they are settled (see release). seq survives reuse and
// only ever grows: every event carries the seq of the issue that
// scheduled it, so an event left over from an earlier use, like the
// deadline of a send that arrived in time, never matches the transfer's
// current issue. Positions are int32 and the counters narrow, since a
// plain run presizes one transfer per position (reserve).
type xfer struct {
	g        *Multicast
	live     []int
	worm     *wormhole.Worm
	from, to int32
	seq      uint32
	attempt  uint8
	adopted  bool
	done     bool
}

// Transfer event kinds. An event's argument is seq<<evBits | kind.
const (
	evInject = iota
	evExpire
	evDeliver

	evBits = 2
)

// Fire implements sim.Handler for the transfer's inject, deadline and
// delivery events.
//
//lint:hotpath
func (x *xfer) Fire(at int64, arg int) {
	seq := uint32(arg >> evBits)
	switch arg & (1<<evBits - 1) {
	case evInject:
		x.g.inject(x, seq)
	case evExpire:
		x.g.expire(x, seq)
	default:
		x.g.deliverAt(int(x.to), x.live, at, x)
		x.g.release(x)
	}
}

// event is x's event argument for its current issue.
func (x *xfer) event(kind int) int { return int(x.seq)<<evBits | kind }

// arrived is the arrival callback of every worm the engine sends; the
// worm's Tag is its transfer. The assignment stays in flight (inflight
// held) through the software receive: a churn event landing in that
// window must not re-target the position.
//
//lint:hotpath
func arrived(w *wormhole.Worm, now int64) {
	x := w.Tag.(*xfer)
	x.done = true
	x.worm = nil
	x.g.e.events.Schedule(now+x.g.tRecv, x, x.event(evDeliver))
}

// open prepares a multicast starting at cycle t0 with every position
// subscribed; the caller has validated cfg.
func (e *Engine) open(t0 int64, tab core.SplitTable, ch chain.Chain, root, msgBytes int, cfg ReliableConfig) *Multicast {
	k := len(ch)
	g := &Multicast{
		e:          e,
		ch:         ch,
		tab:        tab,
		root:       root,
		bytes:      msgBytes,
		cfg:        cfg,
		t0:         t0,
		tSend:      cfg.Sim.Software.Send.At(msgBytes),
		tRecv:      cfg.Sim.Software.Recv.At(msgBytes),
		tHold:      cfg.Sim.Software.Hold.At(msgBytes),
		timeout:    cfg.TEnd * Slack,
		backoff:    max(cfg.TEnd/BackoffDivisor, 1),
		churnLimit: 2 + k/4,
		pos:        make([]slot, k),
		res: ReliableResult{
			Deliveries: make([]int64, k),
			Status:     make([]DestStatus, k),
			FallbackAt: -1,
		},
	}
	for p := range g.pos {
		g.pos[p].wanted, g.pos[p].ever = true, true
		g.res.Deliveries[p] = -1
	}
	if cfg.Repair == RepairBinomial {
		// Binomial as a fixed policy: the degradation endpoint from the
		// first plan, recorded at cycle 0.
		g.fallback = true
		g.res.FallbackAt = 0
	}
	return g
}

// Serve starts one open-system request at cycle at: the source at chain
// index root delivers to every position of ch, pacing its sends on the
// engine's per-node ledger. Unlike a multicast from Open, a request
// gives a lost member up for good — the rest of its subtree is re-split
// from the sender, with no orphan queue and no binomial fallback — and
// done receives the request's ReliableResult at the cycle every
// position is delivered or abandoned. A zero cfg.TEnd arms no
// deadlines: plain service on a healthy fabric.
func (e *Engine) Serve(at int64, tab core.SplitTable, ch chain.Chain, root, msgBytes int, cfg ReliableConfig, done func(t int64, res ReliableResult)) {
	e.serve(at, tab, ch, root, msgBytes, cfg, done)
}

// serve is Serve, returning the request's multicast.
func (e *Engine) serve(at int64, tab core.SplitTable, ch chain.Chain, root, msgBytes int, cfg ReliableConfig, done func(t int64, res ReliableResult)) *Multicast {
	g := e.open(at, tab, ch, root, msgBytes, cfg)
	g.served, g.done = true, done
	all := make([]int, len(ch))
	for i := range all {
		all[i] = i
	}
	g.deliverAt(root, all, at, nil)
	return g
}

// Run delivers from the source to the positions subscribed at Open and
// drives the multicast's engine until the fabric quiesces. horizon
// widens the default MaxCycles safety net by the span of the events the
// caller scheduled.
func (g *Multicast) Run(horizon int64) error {
	net := g.e.net
	max := g.cfg.Sim.MaxCycles
	if max <= 0 {
		max = g.safetyNet() + horizon
	}

	live := make([]int, 0, len(g.ch))
	for p := range g.pos {
		if g.pos[p].wanted {
			live = append(live, p)
		}
	}
	g.deliverAt(g.root, live, g.t0, nil)
	stats, err := Drive(net, g.e.events, g.t0+max, g.e)
	if g.e.err != nil {
		return g.e.err
	}
	if err != nil {
		return err
	}
	g.res.Worms = stats.Worms
	g.res.BlockedCycles = stats.BlockedCycles
	g.res.InjectWaitCycles = stats.InjectWaitCycles
	g.res.Cycles = stats.Cycles
	return nil
}

// safetyNet is the multicast's default MaxCycles bound: the plain
// safety net, widened for the worst recovery case of every pair burning
// its whole retry budget with maximum backoff.
func (g *Multicast) safetyNet() int64 {
	k := len(g.ch)
	base := SafetyNet(g.e.net, g.bytes, g.cfg.Sim.AddrBytes, k, g.tSend+g.tRecv+g.tHold) + 1<<20
	perAssign := (g.timeout + g.backoff<<7) * (Retries + 1)
	return base + int64(k+2)*int64(k+2)*perAssign
}

// Result reports the multicast's outcome once Run has returned. Every
// undelivered position but the source counts as abandoned.
func (g *Multicast) Result() ReliableResult {
	res := g.res
	res.Delivered, res.Abandoned = 0, 0
	for p := range g.pos {
		switch {
		case p == g.root:
		case g.pos[p].delivered:
			res.Delivered++
		default:
			res.Status[p] = StatusAbandoned
			res.Abandoned++
		}
	}
	return res
}

// Schedule runs fn on the multicast's event queue at cycle at, relative
// to the multicast's start, so caller events ride the clock that drives
// deadlines and backoffs.
func (g *Multicast) Schedule(at int64, fn func()) { g.e.events.At(g.t0+at, fn) }

// Membership reports position p's churn state: subscribed now, up now,
// and subscribed at any point of the run.
func (g *Multicast) Membership(p int) (subscribed, up, joined bool) {
	s := &g.pos[p]
	return s.wanted, s.down == 0, s.ever
}

// Grafts counts the sends that delivered joining and rejoining members,
// disjoint from Overhead.OrphanSends.
func (g *Multicast) Grafts() int64 { return g.grafts }

// Join subscribes position p. Unless it already holds the payload or a
// send to it is under way, it is grafted from the nearest delivered
// member.
func (g *Multicast) Join(p int) {
	s := &g.pos[p]
	s.wanted, s.ever = true, true
	if !s.delivered && s.inflight == 0 {
		g.setOrphan(p, true)
		s.joinOrphan = true
	}
	g.assignOrphans(g.e.net.Now())
}

// Leave unsubscribes position p: it is owed nothing more, and the
// assignments it would have relayed are repaired around it.
func (g *Multicast) Leave(p int) {
	now := g.e.net.Now()
	s := &g.pos[p]
	s.wanted, s.joinOrphan = false, false
	g.setOrphan(p, false)
	if !s.delivered {
		g.excise(p, now)
	}
	g.assignOrphans(now)
}

// Crash takes position p down until cycle until (fault.Forever: for
// good). Whatever it held is lost with it, and every assignment
// touching it is repaired around it.
func (g *Multicast) Crash(p int, until int64) {
	now := g.e.net.Now()
	s := &g.pos[p]
	s.down = until
	if s.delivered {
		s.delivered = false
		g.res.Deliveries[p] = -1
	}
	s.joinOrphan = false
	g.setOrphan(p, false)
	g.excise(p, now)
	g.assignOrphans(now)
}

// Rejoin brings a crashed position p back up and re-subscribes it; it
// is grafted from the nearest delivered member.
func (g *Multicast) Rejoin(p int) {
	s := &g.pos[p]
	s.down = 0
	s.wanted = true
	if !s.delivered && s.inflight == 0 {
		g.setOrphan(p, true)
		s.joinOrphan = true
	}
	g.assignOrphans(g.e.net.Now())
}

// Settle re-drives the stragglers once every membership event has fired
// and every finite outage has ended: give-up verdicts reached
// mid-outage no longer hold, so the pair marks are cleared and every
// position still owed delivery is queued against the settled fabric.
func (g *Multicast) Settle() {
	g.pair = nil
	for p := range g.pos {
		if g.owed(p) {
			g.setOrphan(p, true)
		}
	}
	g.assignOrphans(g.e.net.Now())
}

// deliverAt records that position self received the message, with
// responsibility for live, at time t via assignment via (nil for the
// source), schedules its sends, and revisits queued orphans — a new
// delivered member is a new candidate relay.
func (g *Multicast) deliverAt(self int, live []int, t int64, via *xfer) {
	s := &g.pos[self]
	if via != nil {
		s.inflight--
	}
	if s.down != 0 {
		// The receiver crashed mid-receive and lost the message; its
		// subtree members fall to the orphan queue.
		g.orphanAll(g.strandable(live, self))
		g.assignOrphans(t)
		return
	}
	if s.delivered {
		g.e.fault(fmt.Errorf("duplicate delivery to chain position %d", self))
		return
	}
	s.delivered = true
	g.setOrphan(self, false)
	g.res.Deliveries[self] = t - g.t0
	g.res.Latency = max(g.res.Latency, t-g.t0)
	adopted := false
	if via != nil {
		adopted = via.adopted
		switch {
		case via.adopted:
			g.res.Status[self] = StatusAdopted
		case via.attempt > 0:
			g.res.Status[self] = StatusRetried
		default:
			g.res.Status[self] = StatusDelivered
		}
	}
	if self != g.root && !s.wanted {
		// The receiver unsubscribed mid-flight: it keeps the payload (so
		// a later re-join needs no re-delivery) but relays nothing.
		g.orphanAll(g.strandable(live, self))
		g.assignOrphans(t)
		return
	}
	if rest := g.filterLive(live, self); len(rest) > 1 {
		g.spawn(self, rest, t, adopted, false)
	}
	g.assignOrphans(t)
	g.resolve(t)
}

// spawn plans and issues self's sends for the live positions, using
// binomial recursive doubling once the degradation policy has flipped.
// repair marks the sends as replanned (they count toward
// Overhead.RepairSends and their receivers as adopted).
func (g *Multicast) spawn(self int, live []int, t int64, adopted, repair bool) {
	var sends []plan.RepairSend
	var err error
	switch {
	case g.cfg.DegreeCap > 0:
		sends, err = plan.DegreeSends(live, self, g.cfg.DegreeCap)
	case g.fallback:
		sends, err = plan.RepairSends(g.e.sends[:0], core.BinomialTable{Max: len(g.ch)}, live, self)
	default:
		sends, err = plan.RepairSends(g.e.sends[:0], g.tab, live, self)
	}
	if err != nil {
		g.e.fault(err)
		return
	}
	g.e.sends = sends
	for _, snd := range sends {
		x := g.newXfer(self, snd.To, snd.Live, adopted || repair)
		if repair {
			g.res.Overhead.RepairSends++
		}
		g.issue(x, t)
	}
}

// newXfer creates an assignment targeting to, registering it for
// excise. Served requests see no membership events, so they skip the
// registry. A transfer comes from the recycled ones, then from those
// reserve presized, then from the heap.
func (g *Multicast) newXfer(from, to int, live []int, adopted bool) *xfer {
	e := g.e
	var x *xfer
	switch n := len(e.free) - 1; {
	case n >= 0:
		x = e.free[n]
		e.free[n] = nil
		e.free = e.free[:n]
	case len(e.slab) > 0:
		x = &e.slab[0]
		e.slab = e.slab[1:]
	default:
		x = new(xfer)
	}
	*x = xfer{g: g, from: int32(from), to: int32(to), live: live, adopted: adopted, seq: x.seq}
	if !g.served {
		g.xfers = append(g.xfers, x)
	}
	g.pos[to].inflight++
	g.setOrphan(to, false)
	return x
}

// release hands a settled transfer of a served request back to an
// engine that recycles them: it has been delivered or given up, and no
// event of its current issue can still act on it. The bump of seq
// voids the ones still queued, such as the deadline of a send that
// arrived in time.
func (g *Multicast) release(x *xfer) {
	if !g.served || !g.e.recycle {
		return
	}
	x.seq++
	x.g, x.live = nil, nil
	g.e.free = append(g.e.free, x)
}

// issue schedules one transmission of x no earlier than notBefore,
// serialized behind the sender's other sends (one-port pacing: a node's
// consecutive issues are t_hold apart), and arms its delivery deadline.
//
//lint:hotpath
func (g *Multicast) issue(x *xfer, notBefore int64) {
	e := g.e
	if e.err != nil {
		return
	}
	free := &g.pos[x.from].nextFree
	if e.ports != nil {
		free = &e.ports[g.ch[x.from]]
	}
	at := max(notBefore, *free)
	*free = at + g.tHold
	x.seq++
	e.events.Schedule(at+g.tSend, x, x.event(evInject))
	if g.timeout > 0 {
		e.events.Schedule(at+g.timeout, x, x.event(evExpire))
	}
	g.res.Overhead.Sends++
}

// inject hands x's message to the fabric (software send cost already
// elapsed). The arrival callback schedules delivery after the receive
// cost; the deadline event watches the race.
//
//lint:hotpath
func (g *Multicast) inject(x *xfer, seq uint32) {
	if x.done || x.seq != seq {
		return
	}
	bytes := g.bytes + g.cfg.Sim.AddrBytes*(len(x.live)-1)
	src, dst := wormhole.NodeID(g.ch[x.from]), wormhole.NodeID(g.ch[x.to])
	x.worm = g.e.net.Send(src, dst, bytes, x, arrived)
}

// expire fires at x's delivery deadline; if the current issue of x has
// not arrived by then the send is declared lost.
func (g *Multicast) expire(x *xfer, seq uint32) {
	if x.done || x.seq != seq {
		return
	}
	g.fail(x, false)
}

// fail handles a lost send: the outstanding worm (if any) is withdrawn
// so delivery stays at-most-once, then the assignment is retried with
// bounded exponential backoff or given up. It is given up when the
// budget is spent, when the target is known down, or when frozen marks
// a loss the fault layer proved had no live route and the idle-fabric
// oracle agrees the pair is unroutable (retrying a provably dead route
// cannot help; a freeze on a routable pair was a contention-driven
// detour into a dead end, and a retry on a quieter fabric can still
// succeed).
func (g *Multicast) fail(x *xfer, frozen bool) {
	if x.done {
		return
	}
	if x.worm != nil {
		g.e.net.Cancel(x.worm)
		g.res.Overhead.Cancelled++
		x.worm = nil
	}
	x.seq++
	now := g.e.net.Now()
	from, to := int(x.from), int(x.to)
	s := &g.pos[to]
	if !s.wanted && s.down == 0 {
		// The target unsubscribed mid-flight; drop the assignment but
		// keep its subtree members in play.
		g.kill(x)
		if rest := g.strandable(x.live, to); len(rest) > 0 {
			if g.senderStands(from) {
				g.repairRest(from, rest, now)
			} else {
				g.orphanAll(rest)
			}
		}
		g.assignOrphans(now)
		return
	}
	give := x.attempt >= Retries || s.down != 0
	if frozen && !g.routable(from, to) {
		give = true
	}
	if give {
		g.giveUp(x, now)
		return
	}
	x.attempt++
	g.res.Overhead.Retransmits++
	g.issue(x, now+Backoff(g.backoff, int(x.attempt), g.e.rng))
}

// giveUp declares the (from, to) pair lost and repairs the stranded rest
// of to's subtree from the same sender. A served request abandons to for
// good and re-splits the rest; any other multicast marks the pair
// unroutable, advances the degradation ladder, repairs per its policy
// and queues to for re-assignment to another delivered member.
func (g *Multicast) giveUp(x *xfer, now int64) {
	g.res.Overhead.Repairs++
	x.done = true
	from, to := int(x.from), int(x.to)
	g.pos[to].inflight--
	if g.served {
		if rest := g.strandable(x.live, to); len(rest) > 0 {
			g.spawn(from, withSender(rest, from), now, true, true)
		}
		g.resolve(now)
		g.release(x)
		return
	}
	g.markUnroutable(from, to)
	g.noteChurn(now)
	if s := &g.pos[to]; s.wanted && s.down == 0 {
		g.setOrphan(to, true)
	}
	if rest := g.strandable(x.live, to); len(rest) > 0 {
		g.repairRest(from, rest, now)
	}
	g.assignOrphans(now)
}

// resolve counts one more position of a served request settled for good
// and hands done the outcome once every position is.
func (g *Multicast) resolve(t int64) {
	if !g.served {
		return
	}
	g.resolved++
	if g.resolved == len(g.ch) && g.done != nil {
		g.done(t, g.Result())
	}
}

// repairRest re-plans the stranded subtree rest from the standing
// sender per the repair policy: one graft send while the incremental
// budget lasts, a full re-split otherwise.
func (g *Multicast) repairRest(from int, rest []int, now int64) {
	if g.cfg.Repair == RepairIncremental && !g.fallback && g.churn <= max(g.churnLimit/2, 1) {
		g.graft(from, rest, now)
		return
	}
	g.spawn(from, withSender(rest, from), now, true, true)
}

// withSender returns the ascending positions rest with the sender from
// inserted in order: the live list a re-split from the sender plans
// over.
func withSender(rest []int, from int) []int {
	i := sort.SearchInts(rest, from)
	out := make([]int, 0, len(rest)+1)
	out = append(out, rest[:i]...)
	out = append(out, from)
	return append(out, rest[i:]...)
}

// graft implements the incremental repair step: the stranded members
// (order preserved) are handed whole to the one nearest the sender by
// hop distance on the idle-fabric walk (ties to the lowest chain
// position), costing exactly one repair send; the graft point
// re-derives its own sends on delivery, exactly as any tree node does.
// If no stranded member is routable from the sender, they are queued as
// orphans for per-member adoption instead.
func (g *Multicast) graft(from int, rest []int, now int64) {
	h, bestD := -1, 0
	for _, p := range rest {
		if g.unroutable(from, p) {
			continue
		}
		d := g.hopDist(from, p)
		if d < 0 {
			continue
		}
		if h < 0 || d < bestD {
			h, bestD = p, d
		}
	}
	if h < 0 {
		g.orphanAll(rest)
		return
	}
	x := g.newXfer(from, h, rest, true)
	g.res.Overhead.RepairSends++
	g.issue(x, now)
}

// assignOrphans re-drives every queued orphan from the delivered,
// subscribed, up member nearest it by hop distance on the idle-fabric
// walk (ties to the lowest chain position) whose pair is not given up.
// Assignment order is position-ascending and the metric is a pure
// function of the fault set, so the schedule is deterministic;
// unassignable orphans wait for the next delivered member and are
// abandoned if the run drains first. Join/rejoin orphans count as
// grafts. With no orphan queued — always so for served requests — it
// returns at once.
func (g *Multicast) assignOrphans(now int64) {
	if g.orphans == 0 {
		return
	}
	k := len(g.ch)
	for c := 0; c < k; c++ {
		sc := &g.pos[c]
		if !sc.orphan || sc.delivered || sc.down != 0 || sc.inflight > 0 {
			continue
		}
		best, bestD := -1, 0
		for s := 0; s < k; s++ {
			if s == c || !g.senderStands(s) || g.unroutable(s, c) {
				continue
			}
			d := g.hopDist(s, c)
			if d < 0 {
				continue
			}
			if best < 0 || d < bestD {
				best, bestD = s, d
			}
		}
		if best < 0 {
			continue
		}
		if sc.joinOrphan {
			sc.joinOrphan = false
			g.grafts++
		} else {
			g.res.Overhead.OrphanSends++
		}
		g.issue(g.newXfer(best, c, []int{c}, true), now)
	}
}

// excise withdraws every outstanding assignment touching position p —
// inbound (p can no longer receive) and outbound (p can no longer
// relay). A killed inbound assignment whose sender still stands is a
// tree repair: the stranded subtree is re-planned per the repair policy
// from that sender (this is where incremental grafting saves its sends
// over full re-splitting). When the sender itself is the casualty the
// survivors fall to the orphan queue for per-member adoption.
func (g *Multicast) excise(p int, now int64) {
	for _, x := range g.xfers {
		from, to := int(x.from), int(x.to)
		if x.done || (to != p && from != p) {
			continue
		}
		g.kill(x)
		rest := g.strandable(x.live, p)
		if len(rest) == 0 {
			continue
		}
		if to == p && g.senderStands(from) {
			g.noteChurn(now)
			g.repairRest(from, rest, now)
		} else {
			g.orphanAll(rest)
		}
	}
}

// kill terminates an assignment: the in-flight worm (if any) is
// withdrawn and the xfer's pending events are invalidated. Assignments
// whose fabric delivery already completed (done, receive pending) are
// resolved by deliverAt instead.
func (g *Multicast) kill(x *xfer) {
	if x.done {
		return
	}
	if x.worm != nil {
		g.e.net.Cancel(x.worm)
		g.res.Overhead.Cancelled++
		x.worm = nil
	}
	x.done = true
	x.seq++
	g.pos[x.to].inflight--
}

// noteChurn advances the graceful-degradation counter for one repair
// event and records the binomial flip when the limit is hit.
func (g *Multicast) noteChurn(now int64) {
	g.churn++
	if !g.fallback && g.churn >= g.churnLimit {
		g.fallback = true
		g.res.FallbackAt = now - g.t0
	}
}

// owed reports whether position p still needs the message and no
// assignment targets it.
func (g *Multicast) owed(p int) bool {
	s := &g.pos[p]
	return s.wanted && !s.delivered && s.down == 0 && s.inflight == 0
}

// senderStands reports whether a position can act as a sender:
// delivered, subscribed and up.
func (g *Multicast) senderStands(p int) bool {
	s := &g.pos[p]
	return s.delivered && s.wanted && s.down == 0
}

// strandable filters live down to the positions still owed delivery,
// skipping position skip, preserving order.
func (g *Multicast) strandable(live []int, skip int) []int {
	rest := make([]int, 0, len(live))
	for _, q := range live {
		if q != skip && g.owed(q) {
			rest = append(rest, q)
		}
	}
	return rest
}

// filterLive keeps self plus the positions of live still owed delivery,
// preserving order. On an undisturbed tree nothing drops out, and live
// itself is returned without a copy.
func (g *Multicast) filterLive(live []int, self int) []int {
	for i, p := range live {
		if p == self || g.owed(p) {
			continue
		}
		out := append(make([]int, 0, len(live)), live[:i]...)
		for _, q := range live[i+1:] {
			if q == self || g.owed(q) {
				out = append(out, q)
			}
		}
		return out
	}
	return live
}

// setOrphan flags or clears position p's place in the orphan queue,
// keeping the count assignOrphans reads.
func (g *Multicast) setOrphan(p int, on bool) {
	s := &g.pos[p]
	if s.orphan == on {
		return
	}
	s.orphan = on
	if on {
		g.orphans++
	} else {
		g.orphans--
	}
}

func (g *Multicast) orphanAll(ps []int) {
	for _, p := range ps {
		g.setOrphan(p, true)
	}
}

// unroutable reports whether the pair (a, b) was given up.
func (g *Multicast) unroutable(a, b int) bool {
	return g.pair != nil && g.pair[a*len(g.ch)+b]
}

func (g *Multicast) markUnroutable(a, b int) {
	if g.pair == nil {
		g.pair = make([]bool, len(g.ch)*len(g.ch))
	}
	g.pair[a*len(g.ch)+b] = true
}

// hopDist caches the idle-fabric HopDistance oracle per position pair —
// dead channels never heal, so the verdict is stable for the whole run.
// Returns -1 for unroutable pairs.
func (g *Multicast) hopDist(a, b int) int {
	k := len(g.ch)
	if g.hop == nil {
		g.hop = make([]int32, k*k)
	}
	i := a*k + b
	if v := g.hop[i]; v != 0 {
		if v < 0 {
			return -1
		}
		return int(v - 1)
	}
	net := g.e.net
	d := recov.HopDistance(net.Topology(), net.Faults(), wormhole.NodeID(g.ch[a]), wormhole.NodeID(g.ch[b]))
	if d < 0 {
		g.hop[i] = -1
	} else {
		g.hop[i] = int32(d + 1)
	}
	return d
}

// routable reports whether the pair has any idle-fabric route.
func (g *Multicast) routable(a, b int) bool { return g.hopDist(a, b) >= 0 }
