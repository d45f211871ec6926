package mcastsim

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
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

	e := newEngine(net, nil)
	total := 0
	for _, g := range groups {
		total += len(g.Chain)
	}
	e.reserve(total)
	t0 := net.Now()
	served := make([]*Multicast, len(groups))
	// Release every group at its own start time through the shared queue
	// so interleaving is purely time-driven. The groups are node-disjoint,
	// so each position's own one-port ledger is its node's.
	for gi, g := range groups {
		at := t0 + g.StartAt
		e.events.At(at, func() {
			served[gi] = e.serve(at, g.Tab, g.Chain, g.Root, g.Bytes, ReliableConfig{Sim: cfg}, nil)
		})
	}

	max := cfg.MaxCycles
	if max <= 0 {
		max = 1 << 20
		for _, g := range groups {
			soft := cfg.Software.Send.At(g.Bytes) + cfg.Software.Recv.At(g.Bytes) + cfg.Software.Hold.At(g.Bytes)
			max += SafetyNet(net, g.Bytes, cfg.AddrBytes, len(g.Chain), soft) + g.StartAt
		}
	}

	stats, err := Drive(net, e.events, t0+max, NewWatchdog(net, cfg))
	if e.err != nil {
		return nil, e.err
	}
	if err != nil {
		return nil, fmt.Errorf("mcastsim: concurrent batch: %w", err)
	}

	var expect int64
	results := make([]GroupResult, len(groups))
	for gi, g := range served {
		for i, d := range g.res.Deliveries {
			if d < 0 {
				return nil, fmt.Errorf("mcastsim: group %d position %d never delivered", gi, i)
			}
		}
		results[gi] = GroupResult{Result: Result{Latency: g.res.Latency, Deliveries: g.res.Deliveries}, StartAt: groups[gi].StartAt}
		expect += int64(len(groups[gi].Chain) - 1)
	}
	if stats.Worms != expect {
		return nil, fmt.Errorf("mcastsim: %d worms completed, want %d", stats.Worms, expect)
	}
	// Per-group blocked cycles are not separable from fabric stats; report
	// the aggregate on every group and the batch split via worm counts.
	for gi := range results {
		results[gi].BlockedCycles = stats.BlockedCycles
		results[gi].InjectWaitCycles = stats.InjectWaitCycles
		results[gi].Cycles = stats.Cycles
		results[gi].Worms = int64(len(groups[gi].Chain) - 1)
	}
	return results, nil
}
