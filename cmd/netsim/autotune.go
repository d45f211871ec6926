package main

// Online auto-tuning for netsim: train a small crossover surface on
// the healthy fabric (the same calibration discipline as the t_end
// measurement), compile it, and let a tuner.Policy pick the multicast
// algorithm — statically for single-shot runs, per request (with
// drift-driven live switching) under -traffic.

import (
	"fmt"
	"os"

	"repro/internal/mcastsim"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/tuner"
	"repro/internal/wormhole"
)

// Fixed shape of the CLI training sweep: placements per candidate and
// the drift window of the online policy. Small on purpose — the
// surface is rebuilt per invocation (and cached per cell), so training
// must stay interactive.
const (
	autotuneTrials = 3
	autotuneWindow = 4
)

// autotuneAlgos are the candidates: the algorithm table's first three
// rows, in surface index order.
var autotuneAlgos = algos[:3]

// trainPolicy measures every candidate algorithm on the healthy fabric
// over autotuneTrials seeded placements, compiles the one-point
// crossover surface and wraps it in an online policy. Training cells
// go through the result cache when one is open, so repeated
// invocations retrain for free.
func (s *session) trainPolicy() (*tuner.Policy, error) {
	o := s.o
	runCfg := mcastsim.Config{Software: s.soft, AddrBytes: o.addrB, MaxCycles: o.deadline}
	names := make([]string, len(autotuneAlgos))
	for ai, a := range autotuneAlgos {
		names[ai] = a.Name
	}
	surf := tuner.New(s.platform, names, []int{o.k}, []int{o.bytes}, []int{0})

	fmt.Printf("autotune:            training surface on the healthy fabric (%d placements per algorithm)\n", autotuneTrials)
	for ai, a := range autotuneAlgos {
		sum := 0.0
		for tr := 0; tr < autotuneTrials; tr++ {
			seed := o.seed + uint64(tr)
			addrs := sim.NewRNG(seed).Sample(s.n, o.k)
			ch := s.chain(a, addrs)
			root, _ := ch.Index(addrs[0])
			key := s.key("netsim", a.Name, fmt.Sprintf("autotune=train,deadline=%d", o.deadline))
			key.Seed = seed
			res, _, err := cached(s, key, func() (mcastsim.Result, error) {
				return mcastsim.Run(wormhole.New(s.topo, s.cfg), a.Table(o.k, s.thold, s.tend), ch, root, o.bytes, runCfg)
			})
			if err != nil {
				return nil, err
			}
			sum += float64(res.Latency)
		}
		surf.Set(0, 0, 0, ai, sum/autotuneTrials)
		fmt.Printf("autotune:              %-9s mean %.0f cycles\n", a.Name, sum/autotuneTrials)
	}
	if err := surf.Compile(); err != nil {
		return nil, err
	}
	pol, err := tuner.NewPolicy(surf, autotuneAlgos, tuner.PolicyConfig{Window: autotuneWindow})
	if err != nil {
		return nil, err
	}
	fmt.Printf("autotune:            surface %s picks %s for k=%d, %d-byte messages\n",
		surf.Hash()[:12], pol.Name(pol.PickFor(o.k, o.bytes)), o.k, o.bytes)
	return pol, nil
}

// printAutotuneTraffic reports what the online selector did during a
// tuned traffic run: per-algorithm request counts from the service
// records, then (live runs only — a cache hit replays no policy state)
// the recorded switches, the drift windows and the recalibrated
// parameter estimates.
func printAutotuneTraffic(pol *tuner.Policy, reqs []traffic.RequestResult, hit bool, tend model.Time) {
	counts := make([]int, len(autotuneAlgos))
	for _, rr := range reqs {
		if rr.Algo >= 0 && rr.Algo < len(counts) {
			counts[rr.Algo]++
		}
	}
	fmt.Printf("autotune selections: ")
	for ai, a := range autotuneAlgos {
		if ai > 0 {
			fmt.Printf("  ")
		}
		fmt.Printf("%s=%d", a.Name, counts[ai])
	}
	fmt.Println()
	if hit {
		fmt.Fprintln(os.Stderr, "netsim: cached run; switch log and drift need a live run")
		return
	}
	sw, dropped := pol.Switches()
	fmt.Printf("live switches:       %d (log overflow %d)\n", len(sw), dropped)
	for _, s := range sw {
		fmt.Printf("  cycle %8d: %s -> %s  (k=%d, %dB)\n",
			s.At, pol.Name(s.From), pol.Name(s.To), s.K, s.Bytes)
	}
	fmt.Printf("drift:               ")
	for ai, a := range autotuneAlgos {
		if ai > 0 {
			fmt.Printf("  ")
		}
		fmt.Printf("%s=%.2f", a.Name, pol.Drift(ai))
	}
	fmt.Printf("  (%d observations)\n", pol.Observations())
	fmt.Printf("recalibrated t_end:  %d -> %d\n", tend, pol.Recalibrated(tend))
}
