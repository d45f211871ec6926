// Package recover is the delivery engine: it delivers multicasts
// reliably on a (possibly faulted) fabric. It runs the mcastsim runtime
// pattern — nodes re-derive their sends from the split table on
// delivery — with three composed mechanisms:
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
// One transfer state machine serves every delivery layer. Run drives a
// single fixed group. The churn engine (internal/member) feeds its
// schedule onto a group's event queue through Join, Leave, Crash,
// Rejoin and Settle; with every position subscribed and none down those
// branches are no-ops, which is why Run is the same engine. The
// open-system traffic engine (internal/traffic) serves each admitted
// request as a group on one shared Engine (Serve).
//
// The recovery clock is the event queue, never the watchdog: deadlines
// and backoffs fire at exact cycles, and unreachable freezes pin the
// fast kernel's cycle-skipping to the freeze cycle, so both wormhole
// kernels drive recovery through identical decisions at identical times
// (the chaos harness asserts this bit-exactly).
package recover

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/mcastsim"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// RepairPolicy selects how the recovery layer re-plans after a member
// is given up.
type RepairPolicy uint8

const (
	// RepairFull re-runs the OPT split over the surviving sub-chain on
	// every give-up (the original PR-4 behavior) and degrades to
	// binomial past the churn limit.
	RepairFull RepairPolicy = iota
	// RepairIncremental excises only the lost member: the rest of its
	// subtree is grafted in one send onto the member nearest the sender
	// by hop distance, which re-derives its own sends on delivery. When
	// give-ups reach half the churn limit the policy thrashes and falls
	// back to full re-planning, then to binomial at the limit itself.
	RepairIncremental
	// RepairBinomial plans binomial recursive-doubling from the start —
	// the graceful-degradation endpoint as a fixed policy, the baseline
	// the F5 churn figure compares the other two against.
	RepairBinomial
)

func (p RepairPolicy) String() string {
	switch p {
	case RepairFull:
		return "full"
	case RepairIncremental:
		return "incremental"
	case RepairBinomial:
		return "binomial"
	default:
		return fmt.Sprintf("RepairPolicy(%d)", uint8(p))
	}
}

// The recovery schedule. Every constant of it is anchored on the one
// measured parameter t_end (Config.TEnd).
const (
	// Slack scales TEnd into the per-send delivery deadline: a send
	// undelivered Slack*TEnd cycles after issue is declared lost and
	// retransmitted.
	Slack = 3
	// Retries is the retransmission budget per assignment; once spent
	// the destination is given up by this sender and repair takes over.
	Retries = 3
	// BackoffDivisor divides TEnd into the base retransmission backoff,
	// max(TEnd/BackoffDivisor, 1) cycles (see Backoff).
	BackoffDivisor = 4
)

// Config parameterizes one reliable multicast execution.
type Config struct {
	// Sim carries the software costs (t_send, t_recv, t_hold), the
	// address-byte charge, and the MaxCycles safety net, with the same
	// semantics as mcastsim.Config. NoProgressCycles is ignored: every
	// outstanding send has a pending deadline event, so the per-send
	// timeouts subsume the no-progress watchdog.
	Sim mcastsim.Config
	// TEnd is the model-predicted healthy unicast latency for the
	// message size, as measured by mcastsim.Unicast. Required (> 0): it
	// anchors every delivery deadline and backoff.
	TEnd model.Time
	// Repair selects the re-planning policy after give-ups; the zero
	// value is RepairFull, the original behavior.
	Repair RepairPolicy
	// DegreeCap, when positive, caps every node's fan-out: trees are
	// planned with plan.DegreeSends instead of the one-port OPT split,
	// modelling overlay deployments with bounded per-node degree. The
	// cap overrides table selection entirely, so the binomial fallback
	// (whose recursive doubling has unbounded fan-out over time) does
	// not apply; the fallback flip is still recorded for comparability.
	DegreeCap int
	// Seed drives the deterministic backoff jitter.
	Seed uint64
}

// Result reports one reliable multicast execution.
type Result struct {
	// Latency is when the last successful delivery completed (software
	// receive included), measured from the source at 0. Abandoned
	// destinations do not extend it.
	Latency int64
	// Deliveries holds each chain position's delivery-complete time, or
	// -1 if the position was abandoned. The source's is 0.
	Deliveries []int64
	// Status classifies each chain position's outcome. The source is
	// StatusDelivered.
	Status []mcastsim.DestStatus
	// Delivered and Abandoned count the non-source chain positions by
	// final outcome (retried and adopted positions count as delivered).
	Delivered, Abandoned int
	// Overhead itemizes the message cost of recovery.
	Overhead mcastsim.Overhead
	// FallbackAt is the cycle (relative to start) the graceful-
	// degradation policy switched planning to binomial recursive
	// doubling, or -1 if the churn threshold was never reached.
	FallbackAt int64
	// Worms is the number of messages that completed in the fabric;
	// cancelled retransmits are in Overhead.Cancelled, not here.
	Worms int64
	// BlockedCycles, InjectWaitCycles and Cycles mirror mcastsim.Result,
	// counting only completed worms' contention.
	BlockedCycles    int64
	InjectWaitCycles int64
	Cycles           int64
}

// Run executes a reliable multicast of msgBytes over ch with the source
// at chain index root, shaping trees with tab on the (possibly faulted)
// net. Unlike mcastsim.Run it does not fail when destinations are
// unreachable: it retries, repairs and degrades until every destination
// is delivered or provably cut off, and reports per-destination
// outcomes. Errors are reserved for misconfiguration and safety-net
// exhaustion.
func Run(net *wormhole.Network, tab core.SplitTable, ch chain.Chain, root int, msgBytes int, cfg Config) (Result, error) {
	g, err := Open(net, tab, ch, root, msgBytes, cfg, nil)
	if err == nil {
		err = g.Run(0)
	}
	if err != nil {
		return Result{}, fmt.Errorf("recover: %w", err)
	}
	return g.Result(), nil
}

// Open validates one reliable multicast of msgBytes over ch from the
// source at chain index root and prepares it on an engine of its own,
// sending nothing until Group.Run. members flags the positions
// subscribed at the start (nil: every position); the others may join
// later. Errors carry no package prefix.
func Open(net *wormhole.Network, tab core.SplitTable, ch chain.Chain, root, msgBytes int, cfg Config, members []bool) (*Group, error) {
	if err := mcastsim.CheckInput(net, tab, ch, root, msgBytes); err != nil {
		return nil, err
	}
	if members != nil && (len(members) != len(ch) || !members[root]) {
		return nil, fmt.Errorf("membership of %d positions must cover the chain of %d and include the source", len(members), len(ch))
	}
	if err := net.Quiesced(); err != nil {
		return nil, fmt.Errorf("fabric not idle: %w", err)
	}
	if cfg.TEnd <= 0 {
		return nil, fmt.Errorf("Config.TEnd must be the calibrated unicast latency, got %d", cfg.TEnd)
	}
	if cfg.Repair > RepairBinomial {
		return nil, fmt.Errorf("unknown repair policy %d", cfg.Repair)
	}
	if cfg.DegreeCap < 0 {
		return nil, fmt.Errorf("negative degree cap %d", cfg.DegreeCap)
	}

	e := &Engine{net: net, events: new(sim.EventQueue), rng: sim.NewRNG(cfg.Seed ^ 0x7ec0_4e11_ab1e_c0de)}
	g := e.open(net.Now(), tab, ch, root, msgBytes, cfg)
	if members != nil {
		for p := range g.pos {
			g.pos[p].wanted, g.pos[p].ever = members[p], members[p]
		}
	}
	return g, nil
}

// Backoff returns the bounded exponential retransmission delay for the
// given 1-based attempt: base<<min(attempt-1, 6) plus one seeded jitter
// draw in [0, base). It is the single backoff schedule of the delivery
// engine, so every layer on it desynchronizes retries identically. base
// must be >= 1.
func Backoff(base int64, attempt int, rng *sim.RNG) int64 {
	shift := uint(attempt - 1)
	if shift > 6 {
		shift = 6
	}
	return base<<shift + int64(rng.Uint64()%uint64(base))
}
