package traffic

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/mcastsim"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// reqState tracks one request through admission, service and completion.
type reqState struct {
	req         *request
	start, done int64 // -1 until the event happens
	shed        bool
	// The delivery outcome, copied out at completion so the request's
	// engine state can go as soon as it is served.
	delivered []bool
	abandoned int
	overhead  mcastsim.Overhead
}

type engine struct {
	net    *wormhole.Network
	cfg    Config
	events *sim.EventQueue
	// The requests arrive at t0 + arrive in index order, request i on
	// sequence number arrivals+i of events: the engine is the Handler of
	// that claimed stream, which keeps one arrival in the heap at a time.
	t0       int64
	arrivals uint64
	// delivery serves every admitted request as a group on one engine,
	// sharing its one-port ledger per fabric node — overlapping
	// multicasts serialize their software sends on a common CPU
	// timeline, the open-system generalization of mcastsim's per-run
	// t_hold spacing — and its backoff jitter stream.
	delivery *mcastsim.Engine
	states   []*reqState

	inflight  int
	queue     []*reqState
	shedCount int

	// Tuner-mode split-table cache, keyed by the policy's algorithm
	// index plus the workload point (the static path caches per
	// (k, bytes) in genRequests instead).
	tabs map[planKey]core.SplitTable

	occ       sim.TimeWeighted
	warmStart int64
}

// Run executes one open-system traffic run on net, which must be a
// freshly idle fabric (optionally carrying a fault plan, which requires
// Reliable mode). It returns per-request records plus steady-state
// metrics; errors are reserved for misconfiguration, fabric errors in
// plain mode, and safety-net exhaustion.
func Run(net *wormhole.Network, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	nodes := net.Topology().NumNodes()
	if err := cfg.validate(nodes); err != nil {
		return Result{}, err
	}
	if err := net.Quiesced(); err != nil {
		return Result{}, fmt.Errorf("traffic: fabric not idle: %w", err)
	}
	if net.Faults() != nil && !cfg.Reliable {
		return Result{}, fmt.Errorf("traffic: fabric carries a fault plan; Reliable mode is required")
	}

	t0 := net.Now()
	reqs := genRequests(cfg, nodes)
	events := new(sim.EventQueue)
	e := &engine{
		net:      net,
		cfg:      cfg,
		events:   events,
		t0:       t0,
		delivery: mcastsim.NewEngine(net, events, sim.NewRNG(cfg.Seed^seedBackoff)),
		states:   make([]*reqState, len(reqs)),
	}
	if cfg.Tuner != nil {
		e.tabs = make(map[planKey]core.SplitTable)
	}
	e.warmStart = t0 + reqs[cfg.Warmup].arrive
	// The occupancy marker is scheduled before any arrival, so at the
	// warm-start cycle it observes the in-service count before that
	// cycle's admissions mutate it.
	e.events.At(e.warmStart, func() { e.occ.Set(e.warmStart, float64(e.inflight)) })
	for i, rq := range reqs {
		e.states[i] = &reqState{req: rq, start: -1, done: -1}
	}
	// genRequests draws arrival times in non-decreasing order, so each
	// request can be queued when its predecessor arrives (see Fire).
	e.arrivals = events.Claim(len(reqs))
	e.schedule(0)
	if eagerArrivals {
		for i := 1; i < len(reqs); i++ {
			e.schedule(i)
		}
	}

	max := cfg.MaxCycles
	if max <= 0 {
		max = e.defaultMaxCycles(reqs, t0)
	}
	// Reliable mode's per-send deadlines subsume the no-progress
	// watchdog; plain mode has nothing else to notice a freeze.
	var mon mcastsim.Monitor = e.delivery
	if !cfg.Reliable {
		mon = mcastsim.NewWatchdog(net, mcastsim.Config{})
	}
	stats, err := mcastsim.Drive(net, events, t0+max, mon)
	if ferr := e.delivery.Err(); ferr != nil {
		err = ferr
	}
	if err != nil {
		return Result{}, fmt.Errorf("traffic: %w", err)
	}
	for _, rs := range e.states {
		if !rs.shed && rs.done < 0 {
			return Result{}, fmt.Errorf("traffic: request %d admitted but never completed", rs.req.id)
		}
	}
	return e.collect(t0, stats), nil
}

// defaultMaxCycles derives the safety-net deadline: the arrival span
// plus a generous per-request service bound (the mcastsim formula,
// widened by the recovery worst case in Reliable mode) for every
// request serialized end to end.
func (e *engine) defaultMaxCycles(reqs []*request, t0 int64) int64 {
	var maxK, maxBytes int
	var maxSoft, maxAssign int64
	for _, k := range e.cfg.Load.Ks {
		if k > maxK {
			maxK = k
		}
	}
	for _, b := range e.cfg.Load.Sizes {
		if b > maxBytes {
			maxBytes = b
		}
		soft := e.cfg.Software.Send.At(b) + e.cfg.Software.Recv.At(b) + e.cfg.Software.Hold.At(b)
		if soft > maxSoft {
			maxSoft = soft
		}
		tEnd := int64(e.cfg.TEnd(b))
		assign := (tEnd*mcastsim.Slack + (tEnd/mcastsim.BackoffDivisor+1)<<7) * (mcastsim.Retries + 1)
		if assign > maxAssign {
			maxAssign = assign
		}
	}
	perReq := mcastsim.SafetyNet(e.net, maxBytes, e.cfg.AddrBytes, maxK, maxSoft) + 1<<12
	if e.cfg.Reliable {
		perReq += int64(maxK+2) * int64(maxK+2) * maxAssign
	}
	span := reqs[len(reqs)-1].arrive
	return span + perReq*int64(len(reqs)+1) + 1<<20
}

// schedule queues request i's arrival on its claimed sequence number.
//
//lint:hotpath
func (e *engine) schedule(i int) {
	e.events.ScheduleClaimed(e.arrivals+uint64(i), e.t0+e.states[i].req.arrive, e, i)
}

// Fire implements sim.Handler for the arrival stream: request i arrives
// at cycle at, and request i+1 is queued on its claimed number. Its
// arrival is no earlier, so it pops where it would have had every
// arrival been queued up front: at a tie, before the events request i's
// admission just scheduled.
//
//lint:hotpath
func (e *engine) Fire(at int64, i int) {
	e.arrive(e.states[i], at)
	if i+1 < len(e.states) && !eagerArrivals {
		e.schedule(i + 1)
	}
}

// eagerArrivals, a test hook, queues every arrival at the start of Run
// instead of each when its predecessor fires: the schedule the claimed
// stream must reproduce.
var eagerArrivals bool

// noteOcc records an in-service count change for the time-weighted
// occupancy, once the measurement window is open.
func (e *engine) noteOcc(t int64) {
	if t >= e.warmStart && e.occ.Started() {
		e.occ.Set(t, float64(e.inflight))
	}
}

// arrive admits, queues or sheds one request at its arrival cycle.
func (e *engine) arrive(rs *reqState, t int64) {
	if e.inflight < e.cfg.Admit.MaxInFlight {
		e.begin(rs, t)
		return
	}
	if e.cfg.Admit.Policy == AdmissionBounded && len(e.queue) >= e.cfg.Admit.QueueCap {
		rs.shed = true
		e.shedCount++
		return
	}
	e.queue = append(e.queue, rs)
}

// planKey indexes the tuner-mode split-table cache.
type planKey struct{ algo, k, bytes int }

// resolve asks the admission-time policy which algorithm to run rs
// with and builds the request's chain, root and split table from the
// returned Choice. It fires at the service-start cycle, so a policy
// that has shifted its crossover since the request was generated picks
// the algorithm that is best *now*.
func (e *engine) resolve(rs *reqState, t int64) {
	rq := rs.req
	c := e.cfg.Tuner.Choose(t, rq.k, rq.bytes)
	rq.algo = c.Algo
	if c.Ordered && e.cfg.Less != nil {
		rq.ch = chain.New(rq.addrs, e.cfg.Less)
	} else {
		rq.ch = chain.Unordered(rq.addrs)
	}
	rq.root, _ = rq.ch.Index(rq.addrs[0])
	pk := planKey{c.Algo, rq.k, rq.bytes}
	tab, ok := e.tabs[pk]
	if !ok {
		tab = c.Plan(rq.k, rq.tHold, e.cfg.TEnd(rq.bytes))
		e.tabs[pk] = tab
	}
	rq.tab = tab
}

// begin moves a request into service: the source "delivers" to itself
// with responsibility for the whole chain, which schedules its sends.
// Reliable mode arms the reliable defaults (deadline 3·t_end, three
// retries, backoff base t_end/4); plain mode arms no deadlines.
func (e *engine) begin(rs *reqState, t int64) {
	rs.start = t
	if e.cfg.Tuner != nil {
		e.resolve(rs, t)
	}
	e.inflight++
	e.noteOcc(t)
	rq := rs.req
	cfg := mcastsim.ReliableConfig{Sim: mcastsim.Config{Software: e.cfg.Software, AddrBytes: e.cfg.AddrBytes}}
	if e.cfg.Reliable {
		cfg.TEnd = rq.tEnd
	}
	e.delivery.Serve(t, rq.tab, rq.ch, rq.root, rq.bytes, cfg, func(t int64, res mcastsim.ReliableResult) { e.complete(rs, t, res) })
}

// complete closes a request once every chain position is delivered or
// abandoned, frees its service slot, and starts the next queued request
// at the same cycle.
func (e *engine) complete(rs *reqState, t int64, res mcastsim.ReliableResult) {
	rs.done = t
	rs.delivered = make([]bool, len(res.Deliveries))
	for p, d := range res.Deliveries {
		rs.delivered[p] = d >= 0
	}
	rs.abandoned = res.Abandoned
	rs.overhead = res.Overhead
	e.inflight--
	e.noteOcc(t)
	if e.cfg.Tuner != nil {
		e.cfg.Tuner.Observe(t, rs.req.algo, rs.req.k, rs.req.bytes, t-rs.start)
	}
	if len(e.queue) > 0 {
		next := e.queue[0]
		e.queue = e.queue[1:]
		e.begin(next, t)
	}
}
