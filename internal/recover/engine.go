package recover

import (
	"fmt"
	"sort"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/mcastsim"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// Engine is the one transfer state machine on one event queue: every
// group running on it shares the queue, the fabric and the backoff
// jitter stream. Drive it with mcastsim.Drive, passing the engine as the
// Monitor.
type Engine struct {
	net    *wormhole.Network
	events *sim.EventQueue
	rng    *sim.RNG
	// ports is the one-port ledger per fabric node, shared by every
	// group; nil when the engine carries a single group, whose positions
	// then keep their own.
	ports []int64
	unBuf []*wormhole.Worm
	err   error // first internal fault

	// sends is the last spawn's plan, reused by the next. free holds
	// the settled transfers of served requests for newXfer to reuse;
	// keepXfers (a test hook) leaves it empty.
	sends     []plan.RepairSend
	free      []*xfer
	keepXfers bool
}

// NewEngine returns an engine for concurrent groups on net (Serve). They
// share the event queue, the backoff jitter stream rng, and one
// one-port ledger per fabric node, so overlapping multicasts serialize
// their software sends on a common CPU timeline.
func NewEngine(net *wormhole.Network, events *sim.EventQueue, rng *sim.RNG) *Engine {
	return &Engine{net: net, events: events, rng: rng, ports: make([]int64, net.Topology().NumNodes())}
}

// Idled implements mcastsim.Monitor. Every outstanding send has a
// pending deadline event, which subsumes the no-progress watchdog.
func (e *Engine) Idled() {}

// Check implements mcastsim.Monitor. Worms the fault layer froze (no
// live route) are cancelled and their assignments routed into the
// retry/give-up path at once — a frozen worm never completes, and
// waiting out its deadline would just hold channels hostage. StepUntil
// returns in the cycle a worm froze, so each is cancelled in that cycle.
// Cancelling the last frozen worm clears the fabric error, so the run
// continues. The scan for frozen worms runs only while the fabric counts
// one, so Check costs O(1) on every other return.
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

// Group is one multicast on an Engine: the source at chain index root
// owes delivery to every subscribed position of ch.
type Group struct {
	e     *Engine
	ch    chain.Chain
	tab   core.SplitTable
	root  int
	bytes int
	cfg   Config
	t0    int64
	res   Result

	tSend, tRecv, tHold int64
	timeout             int64 // per-send deadline Slack*TEnd; 0 arms none
	backoff             int64 // base retransmission backoff
	churnLimit          int   // give-ups that switch planning to binomial

	pos      []slot
	pair     []bool  // k*k (from*k+to) give-up marks, allocated by the first give-up
	hop      []int32 // k*k HopDistance cache: 0 unknown, d+1 routable, -1 not
	xfers    []*xfer
	churn    int
	fallback bool
	grafts   int64

	// done, when set, makes the group a served request (Serve): a lost
	// member is abandoned for good, and done receives the outcome once
	// every position is delivered or abandoned.
	done     func(t int64, res Result)
	resolved int
}

// slot is one chain position's delivery and membership state.
type slot struct {
	delivered  bool
	wanted     bool  // subscribed now
	ever       bool  // subscribed at some point of the run
	orphan     bool  // owed delivery, awaiting re-assignment
	joinOrphan bool  // orphaned by a join/rejoin: its send counts as a graft
	inflight   int   // outstanding assignments targeting the position
	down       int64 // 0: up; else outage end (fault.Forever: permanent)
	nextFree   int64 // when the send port frees up, unless the engine keeps per-node ledgers
}

// xfer is one delivery assignment: from must get the message to to,
// which then becomes responsible for the ascending chain positions live
// (to included). The assignment survives retransmissions; seq
// invalidates the events of superseded issues. It is the Handler of its
// own events and the Tag of its worm.
//
// A served request's transfers are recycled once they are settled (see
// release). seq survives reuse and only ever grows: every event carries
// the seq of the issue that scheduled it, so an event left over from an
// earlier use, like the deadline of a send that arrived in time, never
// matches the transfer's current issue.
type xfer struct {
	g        *Group
	from, to int
	live     []int
	attempt  int
	seq      int
	adopted  bool
	worm     *wormhole.Worm
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
	seq := arg >> evBits
	switch arg & (1<<evBits - 1) {
	case evInject:
		x.g.inject(x, seq)
	case evExpire:
		x.g.expire(x, seq)
	default:
		x.g.deliverAt(x.to, x.live, at, x)
		x.g.release(x)
	}
}

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
	x.g.e.events.Schedule(now+x.g.tRecv, x, x.seq<<evBits|evDeliver)
}

// open prepares a group starting at cycle t0 with every position
// subscribed; the caller has validated cfg.
func (e *Engine) open(t0 int64, tab core.SplitTable, ch chain.Chain, root, msgBytes int, cfg Config) *Group {
	k := len(ch)
	g := &Group{
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
		res: Result{
			Deliveries: make([]int64, k),
			Status:     make([]mcastsim.DestStatus, k),
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
// engine's per-node ledger. Unlike a group from Open, a request gives a
// lost member up for good — the rest of its subtree is re-split from the
// sender, with no orphan queue and no binomial fallback — and done
// receives the request's Result at the cycle every position is
// delivered or abandoned. A zero cfg.TEnd arms no deadlines: plain
// service on a healthy fabric.
func (e *Engine) Serve(at int64, tab core.SplitTable, ch chain.Chain, root, msgBytes int, cfg Config, done func(t int64, res Result)) {
	g := e.open(at, tab, ch, root, msgBytes, cfg)
	g.done = done
	all := make([]int, len(ch))
	for i := range all {
		all[i] = i
	}
	g.deliverAt(root, all, at, nil)
}

// Run delivers from the source to the positions subscribed at Open and
// drives the group's engine until the fabric quiesces. horizon widens
// the default MaxCycles safety net by the span of the events the caller
// scheduled.
func (g *Group) Run(horizon int64) error {
	net := g.e.net
	max := g.cfg.Sim.MaxCycles
	if max <= 0 {
		max = g.safetyNet() + horizon
	}

	start := net.Stats()
	live := make([]int, 0, len(g.ch))
	for p := range g.pos {
		if g.pos[p].wanted {
			live = append(live, p)
		}
	}
	g.deliverAt(g.root, live, g.t0, nil)
	err := mcastsim.Drive(net, g.e.events, g.t0+max, g.e)
	if g.e.err != nil {
		return g.e.err
	}
	if err != nil {
		return err
	}
	if err := net.Quiesced(); err != nil {
		return fmt.Errorf("fabric did not quiesce: %w", err)
	}
	end := net.Stats()
	g.res.Worms = end.Worms - start.Worms
	g.res.BlockedCycles = end.BlockedCycles - start.BlockedCycles
	g.res.InjectWaitCycles = end.InjectWaitCycles - start.InjectWaitCycles
	g.res.Cycles = end.Cycles - start.Cycles
	return nil
}

// safetyNet is the group's default MaxCycles bound: the mcastsim safety
// net, widened for the worst recovery case of every pair burning its
// whole retry budget with maximum backoff.
func (g *Group) safetyNet() int64 {
	k := len(g.ch)
	base := mcastsim.SafetyNet(g.e.net, g.bytes, g.cfg.Sim.AddrBytes, k, g.tSend+g.tRecv+g.tHold) + 1<<20
	perAssign := (g.timeout + g.backoff<<7) * (Retries + 1)
	return base + int64(k+2)*int64(k+2)*perAssign
}

// Result reports the group's outcome once Run has returned. Every
// undelivered position but the source counts as abandoned.
func (g *Group) Result() Result {
	res := g.res
	res.Delivered, res.Abandoned = 0, 0
	for p := range g.pos {
		switch {
		case p == g.root:
		case g.pos[p].delivered:
			res.Delivered++
		default:
			res.Status[p] = mcastsim.StatusAbandoned
			res.Abandoned++
		}
	}
	return res
}

// Schedule runs fn on the group's event queue at cycle at, relative to
// the group's start, so caller events ride the clock that drives
// deadlines and backoffs.
func (g *Group) Schedule(at int64, fn func()) { g.e.events.At(g.t0+at, fn) }

// Membership reports position p's churn state: subscribed now, up now,
// and subscribed at any point of the run.
func (g *Group) Membership(p int) (subscribed, up, joined bool) {
	s := &g.pos[p]
	return s.wanted, s.down == 0, s.ever
}

// Grafts counts the sends that delivered joining and rejoining members,
// disjoint from Overhead.OrphanSends.
func (g *Group) Grafts() int64 { return g.grafts }

// Join subscribes position p. Unless it already holds the payload or a
// send to it is under way, it is grafted from the nearest delivered
// member.
func (g *Group) Join(p int) {
	s := &g.pos[p]
	s.wanted, s.ever = true, true
	if !s.delivered && s.inflight == 0 {
		s.orphan, s.joinOrphan = true, true
	}
	g.assignOrphans(g.e.net.Now())
}

// Leave unsubscribes position p: it is owed nothing more, and the
// assignments it would have relayed are repaired around it.
func (g *Group) Leave(p int) {
	now := g.e.net.Now()
	s := &g.pos[p]
	s.wanted, s.orphan, s.joinOrphan = false, false, false
	if !s.delivered {
		g.excise(p, now)
	}
	g.assignOrphans(now)
}

// Crash takes position p down until cycle until (fault.Forever: for
// good). Whatever it held is lost with it, and every assignment
// touching it is repaired around it.
func (g *Group) Crash(p int, until int64) {
	now := g.e.net.Now()
	s := &g.pos[p]
	s.down = until
	if s.delivered {
		s.delivered = false
		g.res.Deliveries[p] = -1
	}
	s.orphan, s.joinOrphan = false, false
	g.excise(p, now)
	g.assignOrphans(now)
}

// Rejoin brings a crashed position p back up and re-subscribes it; it
// is grafted from the nearest delivered member.
func (g *Group) Rejoin(p int) {
	s := &g.pos[p]
	s.down = 0
	s.wanted = true
	if !s.delivered && s.inflight == 0 {
		s.orphan, s.joinOrphan = true, true
	}
	g.assignOrphans(g.e.net.Now())
}

// Settle re-drives the stragglers once every membership event has fired
// and every finite outage has ended: give-up verdicts reached
// mid-outage no longer hold, so the pair marks are cleared and every
// position still owed delivery is queued against the settled fabric.
func (g *Group) Settle() {
	g.pair = nil
	for p := range g.pos {
		if g.owed(p) {
			g.pos[p].orphan = true
		}
	}
	g.assignOrphans(g.e.net.Now())
}

// deliverAt records that position self received the message, with
// responsibility for live, at time t via assignment via (nil for the
// source), schedules its sends, and revisits queued orphans — a new
// delivered member is a new candidate relay.
func (g *Group) deliverAt(self int, live []int, t int64, via *xfer) {
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
	s.orphan = false
	g.res.Deliveries[self] = t - g.t0
	g.res.Latency = max(g.res.Latency, t-g.t0)
	adopted := false
	if via != nil {
		adopted = via.adopted
		switch {
		case via.adopted:
			g.res.Status[self] = mcastsim.StatusAdopted
		case via.attempt > 0:
			g.res.Status[self] = mcastsim.StatusRetried
		default:
			g.res.Status[self] = mcastsim.StatusDelivered
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
func (g *Group) spawn(self int, live []int, t int64, adopted, repair bool) {
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
// registry, and they reuse settled transfers.
func (g *Group) newXfer(from, to int, live []int, adopted bool) *xfer {
	var x *xfer
	if n := len(g.e.free) - 1; n >= 0 {
		x = g.e.free[n]
		g.e.free[n] = nil
		g.e.free = g.e.free[:n]
		*x = xfer{g: g, from: from, to: to, live: live, adopted: adopted, seq: x.seq}
	} else {
		x = &xfer{g: g, from: from, to: to, live: live, adopted: adopted}
	}
	if g.done == nil {
		g.xfers = append(g.xfers, x)
	}
	g.pos[to].inflight++
	g.pos[to].orphan = false
	return x
}

// release hands a settled transfer of a served request back to the
// engine: it has been delivered or given up, and no event of its
// current issue can still act on it. The bump of seq voids the ones
// still queued, such as the deadline of a send that arrived in time.
func (g *Group) release(x *xfer) {
	if g.done == nil || g.e.keepXfers {
		return
	}
	x.seq++
	x.g, x.live = nil, nil
	g.e.free = append(g.e.free, x)
}

// issue schedules one transmission of x no earlier than notBefore,
// serialized behind the sender's other sends (one-port pacing: a node's
// consecutive issues are t_hold apart, exactly mcastsim's spacing), and
// arms its delivery deadline.
//
//lint:hotpath
func (g *Group) issue(x *xfer, notBefore int64) {
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
	e.events.Schedule(at+g.tSend, x, x.seq<<evBits|evInject)
	if g.timeout > 0 {
		e.events.Schedule(at+g.timeout, x, x.seq<<evBits|evExpire)
	}
	g.res.Overhead.Sends++
}

// inject hands x's message to the fabric (software send cost already
// elapsed). The arrival callback schedules delivery after the receive
// cost; the deadline event watches the race.
//
//lint:hotpath
func (g *Group) inject(x *xfer, seq int) {
	if x.done || x.seq != seq {
		return
	}
	bytes := g.bytes + g.cfg.Sim.AddrBytes*(len(x.live)-1)
	src, dst := wormhole.NodeID(g.ch[x.from]), wormhole.NodeID(g.ch[x.to])
	x.worm = g.e.net.Send(src, dst, bytes, x, arrived)
}

// expire fires at x's delivery deadline; if the current issue of x has
// not arrived by then the send is declared lost.
func (g *Group) expire(x *xfer, seq int) {
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
func (g *Group) fail(x *xfer, frozen bool) {
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
	to := &g.pos[x.to]
	if !to.wanted && to.down == 0 {
		// The target unsubscribed mid-flight; drop the assignment but
		// keep its subtree members in play.
		g.kill(x)
		if rest := g.strandable(x.live, x.to); len(rest) > 0 {
			if g.senderStands(x.from) {
				g.repairRest(x.from, rest, now)
			} else {
				g.orphanAll(rest)
			}
		}
		g.assignOrphans(now)
		return
	}
	give := x.attempt >= Retries || to.down != 0
	if frozen && !g.routable(x.from, x.to) {
		give = true
	}
	if give {
		g.giveUp(x, now)
		return
	}
	x.attempt++
	g.res.Overhead.Retransmits++
	g.issue(x, now+Backoff(g.backoff, x.attempt, g.e.rng))
}

// giveUp declares the (from, to) pair lost and repairs the stranded rest
// of to's subtree from the same sender. A served request abandons to for
// good and re-splits the rest; any other group marks the pair
// unroutable, advances the degradation ladder, repairs per its policy
// and queues to for re-assignment to another delivered member.
func (g *Group) giveUp(x *xfer, now int64) {
	g.res.Overhead.Repairs++
	x.done = true
	g.pos[x.to].inflight--
	if g.done != nil {
		if rest := g.strandable(x.live, x.to); len(rest) > 0 {
			g.spawn(x.from, withSender(rest, x.from), now, true, true)
		}
		g.resolve(now)
		g.release(x)
		return
	}
	g.markUnroutable(x.from, x.to)
	g.noteChurn(now)
	if to := &g.pos[x.to]; to.wanted && to.down == 0 {
		to.orphan = true
	}
	if rest := g.strandable(x.live, x.to); len(rest) > 0 {
		g.repairRest(x.from, rest, now)
	}
	g.assignOrphans(now)
}

// resolve counts one more position of a served request settled for good
// and hands done the outcome once every position is.
func (g *Group) resolve(t int64) {
	if g.done == nil {
		return
	}
	g.resolved++
	if g.resolved == len(g.ch) {
		g.done(t, g.Result())
	}
}

// repairRest re-plans the stranded subtree rest from the standing
// sender per the repair policy: one graft send while the incremental
// budget lasts, a full re-split otherwise.
func (g *Group) repairRest(from int, rest []int, now int64) {
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
func (g *Group) graft(from int, rest []int, now int64) {
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
// grafts. Served requests never queue orphans.
func (g *Group) assignOrphans(now int64) {
	if g.done != nil {
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
func (g *Group) excise(p int, now int64) {
	for _, x := range g.xfers {
		if x.done || (x.to != p && x.from != p) {
			continue
		}
		g.kill(x)
		rest := g.strandable(x.live, p)
		if len(rest) == 0 {
			continue
		}
		if x.to == p && g.senderStands(x.from) {
			g.noteChurn(now)
			g.repairRest(x.from, rest, now)
		} else {
			g.orphanAll(rest)
		}
	}
}

// kill terminates an assignment: the in-flight worm (if any) is
// withdrawn and the xfer's pending events are invalidated. Assignments
// whose fabric delivery already completed (done, receive pending) are
// resolved by deliverAt instead.
func (g *Group) kill(x *xfer) {
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
func (g *Group) noteChurn(now int64) {
	g.churn++
	if !g.fallback && g.churn >= g.churnLimit {
		g.fallback = true
		g.res.FallbackAt = now - g.t0
	}
}

// owed reports whether position p still needs the message and no
// assignment targets it.
func (g *Group) owed(p int) bool {
	s := &g.pos[p]
	return s.wanted && !s.delivered && s.down == 0 && s.inflight == 0
}

// senderStands reports whether a position can act as a sender:
// delivered, subscribed and up.
func (g *Group) senderStands(p int) bool {
	s := &g.pos[p]
	return s.delivered && s.wanted && s.down == 0
}

// strandable filters live down to the positions still owed delivery,
// skipping position skip, preserving order.
func (g *Group) strandable(live []int, skip int) []int {
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
func (g *Group) filterLive(live []int, self int) []int {
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

func (g *Group) orphanAll(ps []int) {
	for _, p := range ps {
		g.pos[p].orphan = true
	}
}

// unroutable reports whether the pair (a, b) was given up.
func (g *Group) unroutable(a, b int) bool {
	return g.pair != nil && g.pair[a*len(g.ch)+b]
}

func (g *Group) markUnroutable(a, b int) {
	if g.pair == nil {
		g.pair = make([]bool, len(g.ch)*len(g.ch))
	}
	g.pair[a*len(g.ch)+b] = true
}

// hopDist caches the idle-fabric HopDistance oracle per position pair —
// dead channels never heal, so the verdict is stable for the whole run.
// Returns -1 for unroutable pairs.
func (g *Group) hopDist(a, b int) int {
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
	d := HopDistance(net.Topology(), net.Faults(), wormhole.NodeID(g.ch[a]), wormhole.NodeID(g.ch[b]))
	if d < 0 {
		g.hop[i] = -1
	} else {
		g.hop[i] = int32(d + 1)
	}
	return d
}

// routable reports whether the pair has any idle-fabric route.
func (g *Group) routable(a, b int) bool { return g.hopDist(a, b) >= 0 }
