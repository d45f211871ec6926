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

// message is the Tag a worm carries: the chain segment the receiver
// becomes responsible for.
type message struct {
	seg chain.Segment
}

// Run executes a multicast of msgBytes payload over the given chain with
// the source at chain index root, shaping the tree with tab, on net
// (which must be freshly idle). It returns the execution report.
func Run(net *wormhole.Network, tab core.SplitTable, ch chain.Chain, root int, msgBytes int, cfg Config) (Result, error) {
	if err := ch.Validate(); err != nil {
		return Result{}, err
	}
	if root < 0 || root >= len(ch) {
		return Result{}, fmt.Errorf("mcastsim: root index %d outside chain of %d nodes", root, len(ch))
	}
	if len(ch) > tab.K() {
		return Result{}, fmt.Errorf("mcastsim: chain of %d nodes exceeds split table K=%d", len(ch), tab.K())
	}
	if msgBytes < 0 {
		return Result{}, fmt.Errorf("mcastsim: negative message size %d", msgBytes)
	}
	for _, a := range ch {
		if a < 0 || a >= net.Topology().NumNodes() {
			return Result{}, fmt.Errorf("mcastsim: chain address %d outside fabric of %d nodes", a, net.Topology().NumNodes())
		}
	}
	if err := net.Quiesced(); err != nil {
		return Result{}, fmt.Errorf("mcastsim: fabric not idle: %w", err)
	}

	r := &runner{
		net:    net,
		tab:    tab,
		ch:     ch,
		bytes:  msgBytes,
		cfg:    cfg,
		events: new(sim.EventQueue),
		res: Result{
			Deliveries: make([]int64, len(ch)),
		},
		t0: net.Now(),
	}
	for i := range r.res.Deliveries {
		r.res.Deliveries[i] = -1
	}

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
		// Generous: every message fully serialized plus software costs.
		perMsg := int64(net.Config().Flits(msgBytes+cfg.AddrBytes*len(ch))) + int64(net.Topology().NumChannels())
		soft := cfg.Software.Send.At(msgBytes) + cfg.Software.Recv.At(msgBytes) + cfg.Software.Hold.At(msgBytes)
		max = (perMsg+soft+1024)*int64(len(ch)+1)*4 + 1<<20
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
}

// deliver records that the node at chain index self has the message and
// responsibility for seg at time t, and schedules its sends.
func (r *runner) deliver(self int, seg chain.Segment, t int64) {
	r.res.Deliveries[self] = t - r.t0
	if lat := t - r.t0; lat > r.res.Latency {
		r.res.Latency = lat
	}
	sends, err := plan.Sends(r.tab, seg, self)
	if err != nil {
		r.onPlanErr(err)
		return
	}
	tHold := r.cfg.Software.Hold.At(r.bytes)
	tSend := r.cfg.Software.Send.At(r.bytes)
	for i, snd := range sends {
		issue := t + int64(i)*tHold
		injectAt := issue + tSend
		src := wormhole.NodeID(r.ch[self])
		dst := wormhole.NodeID(r.ch[snd.To])
		seg := snd.Seg
		toIdx := snd.To
		r.events.At(injectAt, func() {
			bytes := r.bytes + r.cfg.AddrBytes*(seg.Len()-1)
			r.net.Send(src, dst, bytes, message{seg: seg}, func(w *wormhole.Worm, now int64) {
				tRecv := r.cfg.Software.Recv.At(r.bytes)
				r.events.At(now+tRecv, func() {
					r.deliver(toIdx, seg, now+tRecv)
				})
			})
		})
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
