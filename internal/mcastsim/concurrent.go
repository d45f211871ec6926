package mcastsim

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// Group is one multicast of a concurrent batch: its own tree shape,
// chain, source, message size and release time.
type Group struct {
	Tab   core.SplitTable
	Chain chain.Chain
	Root  int
	Bytes int
	// StartAt delays the group's first send (cycles from batch start).
	StartAt int64
}

// GroupResult reports one group of a concurrent batch. Latency is
// measured from the group's own start time.
type GroupResult struct {
	Result
	// StartAt echoes the group's release time.
	StartAt int64
}

// RunConcurrent executes several multicasts on one fabric at the same
// time. Groups must cover pairwise-disjoint node sets (each node has one
// CPU timeline; disjointness keeps the software model exact), but their
// messages share the fabric — which is precisely the point: the paper's
// contention-freedom theorems hold within a single multicast, and this
// entry point measures how much concurrent collectives interfere.
func RunConcurrent(net *wormhole.Network, groups []Group, cfg Config) ([]GroupResult, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("mcastsim: no groups")
	}
	if err := net.Quiesced(); err != nil {
		return nil, fmt.Errorf("mcastsim: fabric not idle: %w", err)
	}
	seen := make(map[int]int)
	for gi, g := range groups {
		if err := CheckInput(net, g.Tab, g.Chain, g.Root, g.Bytes); err != nil {
			return nil, fmt.Errorf("mcastsim: group %d: %w", gi, err)
		}
		if g.StartAt < 0 {
			return nil, fmt.Errorf("mcastsim: group %d: negative start %d", gi, g.StartAt)
		}
		for _, a := range g.Chain {
			if prev, dup := seen[a]; dup {
				return nil, fmt.Errorf("mcastsim: node %d appears in groups %d and %d (groups must be disjoint)", a, prev, gi)
			}
			seen[a] = gi
		}
	}

	var events sim.EventQueue
	var planErr error
	t0 := net.Now()
	runners := make([]*runner, len(groups))
	results := make([]GroupResult, len(groups))
	for gi, g := range groups {
		r := newRunner(net, g.Tab, g.Chain, g.Bytes, cfg, &events, t0+g.StartAt)
		r.onPlanErr = func(err error) {
			if planErr == nil {
				planErr = err
			}
		}
		runners[gi] = r
		results[gi].StartAt = g.StartAt
	}
	// Release every group at its own start time through the shared queue
	// so interleaving is purely time-driven.
	for gi, g := range groups {
		r := runners[gi]
		root, seg := g.Root, chain.Segment{L: 0, R: len(g.Chain) - 1}
		events.At(r.t0, func() { r.deliver(root, seg, r.t0) })
	}

	max := cfg.MaxCycles
	if max <= 0 {
		max = 1 << 20
		for gi, g := range groups {
			r := runners[gi]
			max += SafetyNet(net, g.Bytes, cfg.AddrBytes, len(g.Chain), r.tSend+r.tRecv+r.tHold) + g.StartAt
		}
	}

	startStats := net.Stats()
	err := Drive(net, &events, t0+max, NewWatchdog(net, cfg))
	if planErr != nil {
		return nil, planErr
	}
	if err != nil {
		return nil, fmt.Errorf("mcastsim: concurrent batch: %w", err)
	}
	if err := net.Quiesced(); err != nil {
		return nil, fmt.Errorf("mcastsim: fabric did not quiesce: %w", err)
	}

	end := net.Stats()
	totalWorms := end.Worms - startStats.Worms
	var expect int64
	for gi, r := range runners {
		for i, d := range r.res.Deliveries {
			if d < 0 {
				return nil, fmt.Errorf("mcastsim: group %d position %d never delivered", gi, i)
			}
		}
		results[gi].Result = r.res
		expect += int64(len(groups[gi].Chain) - 1)
	}
	if totalWorms != expect {
		return nil, fmt.Errorf("mcastsim: %d worms completed, want %d", totalWorms, expect)
	}
	// Per-group blocked cycles are not separable from fabric stats; report
	// the aggregate on every group and the batch split via worm counts.
	for gi := range results {
		results[gi].BlockedCycles = end.BlockedCycles - startStats.BlockedCycles
		results[gi].InjectWaitCycles = end.InjectWaitCycles - startStats.InjectWaitCycles
		results[gi].Cycles = end.Cycles - startStats.Cycles
		results[gi].Worms = int64(len(groups[gi].Chain) - 1)
	}
	return results, nil
}
