// Package mcastsim executes software multicast algorithms on the
// flit-level wormhole simulator, applying the parameterized model's
// software costs at every node.
//
// The runtime mirrors how unicast-based multicast actually executes: the
// source holds the full destination chain; every message carries the
// sub-chain segment its receiver becomes responsible for; on delivery a
// node re-derives its own sends from the split table (exactly the while
// loops of Algorithms 3.1/4.1) and issues them back-to-back, spaced
// t_hold apart. Nothing is globally scheduled — latency, pipelining and
// contention emerge from the fabric simulation.
package mcastsim

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// Config parameterizes one multicast execution.
type Config struct {
	// Software holds t_send, t_recv and t_hold.
	Software model.Software
	// AddrBytes, when positive, charges this many payload bytes per
	// destination address carried in a message (the paper notes that
	// "each message carries the addresses of the destinations for which
	// the receiving node is responsible"). Zero models address lists as
	// free, which is what the analytic model assumes.
	AddrBytes int
	// MaxCycles bounds the simulation as a safety net against routing
	// bugs; 0 means a generous default derived from the workload.
	MaxCycles int64
	// NoProgressCycles is the no-progress watchdog window: if no flit
	// moves fabric-wide for this many cycles while worms are in flight,
	// the run aborts with a diagnostic naming the stuck worms and the
	// hottest blocked channel (wormhole.Network.DeadlockReport). New sends
	// can never free a held channel, so a fabric-wide freeze longer than
	// the router pipeline is permanent — the only false-positive risk is a
	// fault model whose outage windows exceed the watchdog window, which
	// is why the window must stay well above them. 0 means the default
	// (4096 cycles); negative disables the watchdog. The effective window
	// is never below 2*RouterDelay+64.
	NoProgressCycles int64
}

// Result reports one multicast execution.
type Result struct {
	// Latency is the multicast latency: the time the last destination
	// finished receiving (software receive overhead included), measured
	// from the source starting its first send at time 0.
	Latency int64
	// Deliveries holds each chain position's delivery-complete time
	// (the source's is 0).
	Deliveries []int64
	// Worms is the number of point-to-point messages sent.
	Worms int64
	// BlockedCycles is the total header-blocked time across all
	// messages: the network-contention metric. Contention-free
	// algorithms (OPT-mesh, U-mesh, OPT-min, U-min) must report 0.
	BlockedCycles int64
	// InjectWaitCycles is one-port serialization time at the sources.
	InjectWaitCycles int64
	// Cycles is how many fabric cycles were actually stepped (idle
	// software-only gaps are fast-forwarded and not counted).
	Cycles int64
}

// Run executes a multicast of msgBytes payload over the given chain with
// the source at chain index root, shaping the tree with tab, on net
// (which must be freshly idle). It returns the execution report.
func Run(net *wormhole.Network, tab core.SplitTable, ch chain.Chain, root int, msgBytes int, cfg Config) (Result, error) {
	if err := CheckInput(net, tab, ch, root, msgBytes); err != nil {
		return Result{}, fmt.Errorf("mcastsim: %w", err)
	}
	if err := net.Quiesced(); err != nil {
		return Result{}, fmt.Errorf("mcastsim: fabric not idle: %w", err)
	}

	// Each chain position has at most one pending event, its transfer's
	// injection or delivery, so the queue is sized for the chain up front.
	events := new(sim.EventQueue)
	events.Reserve(len(ch))
	r := newRunner(net, tab, ch, msgBytes, cfg, events, net.Now())
	var planErr error
	r.onPlanErr = func(err error) {
		if planErr == nil {
			planErr = err
		}
	}
	r.deliver(root, chain.Segment{L: 0, R: len(ch) - 1}, r.t0)
	if planErr != nil {
		return Result{}, planErr
	}

	max := cfg.MaxCycles
	if max <= 0 {
		max = SafetyNet(net, msgBytes, cfg.AddrBytes, len(ch), r.tSend+r.tRecv+r.tHold) + 1<<20
	}

	startStats := net.Stats()
	err := Drive(net, r.events, r.t0+max, NewWatchdog(net, cfg))
	if planErr != nil {
		return Result{}, planErr
	}
	if err != nil {
		return Result{}, fmt.Errorf("mcastsim: %w", err)
	}
	if err := net.Quiesced(); err != nil {
		return Result{}, fmt.Errorf("mcastsim: fabric did not quiesce: %w", err)
	}
	for i, d := range r.res.Deliveries {
		if d < 0 {
			return Result{}, fmt.Errorf("mcastsim: chain position %d (node %d) never received the message", i, ch[i])
		}
	}

	end := net.Stats()
	r.res.Worms = end.Worms - startStats.Worms
	r.res.BlockedCycles = end.BlockedCycles - startStats.BlockedCycles
	r.res.InjectWaitCycles = end.InjectWaitCycles - startStats.InjectWaitCycles
	r.res.Cycles = end.Cycles - startStats.Cycles
	return r.res, nil
}

// CheckInput reports why a multicast of msgBytes over ch from chain
// index root, shaped by tab, cannot run on net; nil if it can. It is
// every delivery layer's one input check, and its errors carry no
// package prefix.
func CheckInput(net *wormhole.Network, tab core.SplitTable, ch chain.Chain, root, msgBytes int) error {
	if err := ch.Validate(); err != nil {
		return err
	}
	if root < 0 || root >= len(ch) {
		return fmt.Errorf("root index %d outside chain of %d nodes", root, len(ch))
	}
	if len(ch) > tab.K() {
		return fmt.Errorf("chain of %d nodes exceeds split table K=%d", len(ch), tab.K())
	}
	return CheckSizeAndAddresses(net, ch, msgBytes)
}

// CheckSizeAndAddresses reports a negative message size or a chain
// address outside net's fabric; nil if there is neither. It is the part
// of CheckInput that a collective without a split table or root shares,
// and its errors carry no package prefix.
func CheckSizeAndAddresses(net *wormhole.Network, ch chain.Chain, msgBytes int) error {
	if msgBytes < 0 {
		return fmt.Errorf("negative message size %d", msgBytes)
	}
	for _, a := range ch {
		if n := net.Topology().NumNodes(); a < 0 || a >= n {
			return fmt.Errorf("chain address %d outside fabric of %d nodes", a, n)
		}
	}
	return nil
}

// SafetyNet is the generous core of every delivery layer's default
// MaxCycles bound: a multicast of msgBytes to k chain positions with
// software costs soft (t_send + t_recv + t_hold) and every message
// fully serialized through every channel of net, four times over.
func SafetyNet(net *wormhole.Network, msgBytes, addrBytes, k int, soft int64) int64 {
	perMsg := int64(net.Config().Flits(msgBytes+addrBytes*k)) + int64(net.Topology().NumChannels())
	return (perMsg + soft + 1024) * int64(k+1) * 4
}

type runner struct {
	net       *wormhole.Network
	tab       core.SplitTable
	ch        chain.Chain
	bytes     int
	cfg       Config
	events    *sim.EventQueue
	res       Result
	t0        int64
	onPlanErr func(error)

	tSend, tRecv, tHold int64
	// xfers holds the one transfer each chain position receives by: a
	// multicast delivers every position once, so a run needs no more.
	// sends holds one delivery's plan at a time; a node sends to fewer
	// positions than the chain holds, so it never grows.
	xfers []transfer
	sends []plan.Send
}

// newRunner prepares one multicast over ch starting at cycle t0, its
// events on q.
func newRunner(net *wormhole.Network, tab core.SplitTable, ch chain.Chain, msgBytes int, cfg Config, q *sim.EventQueue, t0 int64) *runner {
	r := &runner{
		net:    net,
		tab:    tab,
		ch:     ch,
		bytes:  msgBytes,
		cfg:    cfg,
		events: q,
		res:    Result{Deliveries: make([]int64, len(ch))},
		t0:     t0,
		tSend:  cfg.Software.Send.At(msgBytes),
		tRecv:  cfg.Software.Recv.At(msgBytes),
		tHold:  cfg.Software.Hold.At(msgBytes),
		xfers:  make([]transfer, len(ch)),
		sends:  make([]plan.Send, 0, len(ch)),
	}
	for i := range r.res.Deliveries {
		r.res.Deliveries[i] = -1
		r.xfers[i] = transfer{r: r, to: i}
	}
	return r
}

// transfer is the one message that delivers chain position to: it is
// the worm's Tag and the Handler of the message's two events.
type transfer struct {
	r        *runner
	from, to int
	seg      chain.Segment // the positions to becomes responsible for
}

// Transfer event kinds.
const (
	evInject = iota
	evDeliver
)

// Fire implements sim.Handler: evInject hands the message to the fabric
// once the sender's software send has elapsed, evDeliver completes the
// receive.
//
//lint:hotpath
func (x *transfer) Fire(at int64, kind int) {
	r := x.r
	if kind == evDeliver {
		r.deliver(x.to, x.seg, at)
		return
	}
	bytes := r.bytes + r.cfg.AddrBytes*(x.seg.Len()-1)
	r.net.Send(wormhole.NodeID(r.ch[x.from]), wormhole.NodeID(r.ch[x.to]), bytes, x, arrived)
}

// arrived is the arrival callback of every multicast worm: the receiver's
// software receive starts when the tail flit is consumed.
//
//lint:hotpath
func arrived(w *wormhole.Worm, now int64) {
	x := w.Tag.(*transfer)
	x.r.events.Schedule(now+x.r.tRecv, x, evDeliver)
}

// deliver records that the node at chain index self has the message and
// responsibility for seg at time t, and schedules its sends.
//
//lint:hotpath
func (r *runner) deliver(self int, seg chain.Segment, t int64) {
	r.res.Deliveries[self] = t - r.t0
	if lat := t - r.t0; lat > r.res.Latency {
		r.res.Latency = lat
	}
	sends, err := plan.Sends(r.sends[:0], r.tab, seg, self)
	if err != nil {
		r.onPlanErr(err)
		return
	}
	for i, snd := range sends {
		x := &r.xfers[snd.To]
		x.from, x.seg = self, snd.Seg
		r.events.Schedule(t+int64(i)*r.tHold+r.tSend, x, evInject)
	}
}

// Unicast measures one end-to-end point-to-point latency (t_end) between
// src and dst for the given message size: software send cost, fabric
// traversal, software receive cost. It is the micro-benchmark the
// calibration step uses to fit t_net, mirroring how the paper measures
// its parameters at user level.
func Unicast(net *wormhole.Network, src, dst int, msgBytes int, cfg Config) (int64, error) {
	ch := chain.Chain{src, dst}
	if src == dst {
		return 0, fmt.Errorf("mcastsim: unicast endpoints must differ")
	}
	tab := core.NewOptTable(2, 1, 1)
	res, err := Run(net, tab, ch, 0, msgBytes, cfg)
	if err != nil {
		return 0, err
	}
	return res.Latency, nil
}
