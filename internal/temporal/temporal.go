// Package temporal implements the paper's concluding proposal (§6) for
// networks that cannot be partitioned into contention-free clusters,
// such as the unidirectional butterfly: when some channels must be
// shared, order the nodes so the senders that share them "are unlikely
// to send at the same time" — temporal, rather than spatial,
// contention avoidance.
//
// The tuner keeps the optimal tree shape (the split table is fixed; it
// is what makes the latency optimal) and searches over the chain
// ordering. The objective is computed by the static contention checker
// (package contention): the total time-overlap of channel-sharing send
// pairs in the analytic schedule. A seeded hill climb with pairwise
// swaps is simple, deterministic, and in practice removes most of the
// residual contention the lexicographic order leaves on the butterfly —
// the experiments record exactly how much.
package temporal

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// Config parameterizes one tuning run.
type Config struct {
	// Topo is the fabric the schedule will execute on.
	Topo wormhole.Topology
	// Software supplies t_send/t_recv for occupancy windows.
	Software model.Software
	// Slack pads occupancy windows (see contention.Checker).
	Slack int64
	// Iterations bounds the hill climb (default 400).
	Iterations int
	// Seed drives the swap proposals.
	Seed uint64
	// Restarts runs the climb from several shuffled starts and keeps
	// the best (default 1: start from the given chain only).
	Restarts int
}

// Result reports a tuning run.
type Result struct {
	// Chain is the best ordering found.
	Chain chain.Chain
	// Root is the source's index in Chain.
	Root int
	// InitialCost and FinalCost are the objective (total conflict
	// overlap, cycles) before and after tuning.
	InitialCost, FinalCost int64
	// Evaluations counts objective evaluations performed.
	Evaluations int
}

// Tune searches for a chain ordering of addrs (source first) minimizing
// predicted contention for the given tree shape and message size. The
// returned chain always contains exactly the given addresses.
func Tune(cfg Config, tab core.SplitTable, addrs []int, bytes int, thold, tend model.Time) (*Result, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("temporal: empty address set")
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 400
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	checker := &contention.Checker{Topo: cfg.Topo, Software: cfg.Software, Slack: cfg.Slack}
	src := addrs[0]

	res := &Result{}
	evalChain := func(ch chain.Chain) (int64, error) {
		res.Evaluations++
		root, ok := ch.Index(src)
		if !ok {
			return 0, fmt.Errorf("temporal: source lost from chain")
		}
		return cost(checker, tab, ch, root, bytes, thold, tend)
	}

	base := chain.Unordered(addrs)
	bestCost, err := evalChain(base)
	if err != nil {
		return nil, err
	}
	res.InitialCost = bestCost
	best := base

	rng := sim.NewRNG(cfg.Seed)
	for restart := 0; restart < cfg.Restarts; restart++ {
		cur := append(chain.Chain(nil), base...)
		if restart > 0 {
			rng.Shuffle(cur)
		}
		curCost, err := evalChain(cur)
		if err != nil {
			return nil, err
		}
		for it := 0; it < cfg.Iterations && curCost > 0; it++ {
			i := rng.Intn(len(cur))
			j := rng.Intn(len(cur))
			if i == j {
				continue
			}
			cur[i], cur[j] = cur[j], cur[i]
			c, err := evalChain(cur)
			if err != nil {
				return nil, err
			}
			if c <= curCost {
				curCost = c // accept (plateau moves allowed)
			} else {
				cur[i], cur[j] = cur[j], cur[i] // revert
			}
		}
		if curCost < bestCost {
			bestCost = curCost
			best = append(chain.Chain(nil), cur...)
		}
	}

	root, _ := best.Index(src)
	res.Chain = best
	res.Root = root
	res.FinalCost = bestCost
	return res, nil
}

// cost is the tuning objective: the summed time-overlap (cycles) of
// every channel-sharing send pair in the analytic schedule. Zero means
// the static checker predicts a contention-free execution.
func cost(k *contention.Checker, tab core.SplitTable, ch chain.Chain, root, bytes int, thold, tend model.Time) (int64, error) {
	s, err := plan.BuildSchedule(tab, ch, root, thold, tend)
	if err != nil {
		return 0, err
	}
	conflicts, err := k.CheckSchedule(s, bytes)
	if err != nil {
		return 0, err
	}
	tSend := k.Software.Send.At(bytes)
	tRecv := k.Software.Recv.At(bytes)
	var total int64
	for _, c := range conflicts {
		aStart, aEnd := c.A.Issue+tSend, c.A.Arrive-tRecv
		bStart, bEnd := c.B.Issue+tSend, c.B.Arrive-tRecv
		lo, hi := max(aStart, bStart), min(aEnd, bEnd)
		if hi > lo {
			total += hi - lo
		} else {
			total++ // overlap only via slack; count minimally
		}
	}
	return total, nil
}
