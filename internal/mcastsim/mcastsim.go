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
//
// One transfer state machine, the Engine, runs that rule for every
// delivery layer. Run, RunConcurrent and Unicast serve their multicasts
// on it with no deadlines; the open-system traffic engine
// (internal/traffic) serves each admitted request as a group on one
// shared Engine (Serve). RunReliable and Open add reliable delivery on a
// (possibly faulted) fabric, with three composed mechanisms:
//
//  1. Per-send timeout and retransmission: every send carries a delivery
//     deadline, the model-predicted unicast latency t_end scaled by the
//     fixed slack factor Slack. An unacknowledged send is withdrawn from
//     the fabric (wormhole.Network.Cancel, so delivery stays
//     at-most-once) and re-issued, up to Retries times, with bounded
//     exponential backoff; the backoff jitter comes from a seeded RNG,
//     so sweeps stay reproducible.
//  2. Subtree adoption / tree repair: when a destination is declared
//     dead after the retry budget, its sender strikes it from the chain
//     and re-runs the OPT split over the surviving sub-chain
//     (plan.RepairSends) — striking members from an architecture-ordered
//     chain preserves the order, so the repaired tree keeps the paper's
//     contention-freedom on the healthy links. The struck member becomes
//     an orphan, re-assigned to any delivered member that can still
//     route to it.
//  3. Graceful degradation: when repair churns past a threshold of
//     give-ups (2 + k/4 for a k-member group), planning falls back from
//     the parameterized OPT tree to binomial recursive-doubling over
//     survivors — a simpler shape that trades latency for fewer deep
//     dependency chains — and the policy flip is recorded in the result.
//
// The churn engine (internal/member) feeds its schedule onto a
// multicast's event queue through Join, Leave, Crash, Rejoin and Settle;
// with every position subscribed and none down those branches are
// no-ops, which is why RunReliable is the same engine. Give-ups, graft
// points and adopters are judged by the idle-fabric reachability oracle
// of internal/recover.
//
// The recovery clock is the event queue, never the watchdog: deadlines
// and backoffs fire at exact cycles, and unreachable freezes pin the
// fast kernel's cycle-skipping to the freeze cycle, so both wormhole
// kernels drive recovery through identical decisions at identical times
// (the chaos harness asserts this bit-exactly).
package mcastsim

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/model"
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
//
// The multicast is one request served with no deadlines (Serve with
// TEnd 0) on an engine of its own, driven under the Watchdog: a frozen
// worm or a stalled fabric is an error, not a retry.
func Run(net *wormhole.Network, tab core.SplitTable, ch chain.Chain, root int, msgBytes int, cfg Config) (Result, error) {
	if err := CheckInput(net, tab, ch, root, msgBytes); err != nil {
		return Result{}, fmt.Errorf("mcastsim: %w", err)
	}
	if err := net.Quiesced(); err != nil {
		return Result{}, fmt.Errorf("mcastsim: fabric not idle: %w", err)
	}

	e := newEngine(net, nil)
	e.reserve(len(ch))
	g := e.serve(net.Now(), tab, ch, root, msgBytes, ReliableConfig{Sim: cfg}, nil)
	// A plain run's only engine fault is a plan error: it wins over any
	// drive error and keeps the planner's text.
	if e.err != nil {
		return Result{}, e.err
	}

	max := cfg.MaxCycles
	if max <= 0 {
		max = SafetyNet(net, msgBytes, cfg.AddrBytes, len(ch), g.tSend+g.tRecv+g.tHold) + 1<<20
	}

	stats, err := Drive(net, e.events, g.t0+max, NewWatchdog(net, cfg))
	if e.err != nil {
		return Result{}, e.err
	}
	if err != nil {
		return Result{}, fmt.Errorf("mcastsim: %w", err)
	}
	for i, d := range g.res.Deliveries {
		if d < 0 {
			return Result{}, fmt.Errorf("mcastsim: chain position %d (node %d) never received the message", i, ch[i])
		}
	}
	return Result{
		Latency:          g.res.Latency,
		Deliveries:       g.res.Deliveries,
		Worms:            stats.Worms,
		BlockedCycles:    stats.BlockedCycles,
		InjectWaitCycles: stats.InjectWaitCycles,
		Cycles:           stats.Cycles,
	}, nil
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

// Unicast measures one end-to-end point-to-point latency (t_end) between
// src and dst for the given message size: software send cost, fabric
// traversal, software receive cost. It is the micro-benchmark the
// calibration step uses to fit t_net, mirroring how the paper measures
// its parameters at user level.
func Unicast(net *wormhole.Network, src, dst int, msgBytes int, cfg Config) (int64, error) {
	if src == dst {
		return 0, fmt.Errorf("mcastsim: unicast endpoints must differ")
	}
	// Every split table has J(2) = 1: the one send is the same whatever
	// the table.
	res, err := Run(net, core.BinomialTable{Max: 2}, chain.Chain{src, dst}, 0, msgBytes, cfg)
	if err != nil {
		return 0, err
	}
	return res.Latency, nil
}
