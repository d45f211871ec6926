package traffic

import (
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
)

// request is one fully drawn multicast: everything about it is fixed
// before the fabric starts stepping, so the workload is a pure function
// of (Config, Seed) and never depends on execution interleaving.
type request struct {
	id     int
	arrive int64
	k      int
	bytes  int
	// addrs is the drawn member set, source first. Under a Tuner the
	// chain, root and split table stay unset until the admission-time
	// Choice resolves them (engine.resolve); the *draws* are still all
	// made at generation time, so the workload itself remains a pure
	// function of (Config, Seed) whichever algorithms end up selected.
	addrs []int
	algo  int // Selector's Choice.Algo; -1 on the static path
	ch    chain.Chain
	root  int
	tab   core.SplitTable
	// tHold and tEnd are the per-size t_hold and calibrated t_end.
	tHold int64
	tEnd  model.Time
}

// genRequests draws the whole workload: arrival times from the arrival
// stream, group/message sizes and placements from the workload stream,
// and the hot set from its own stream. Split tables are built once per
// (k, bytes) combination.
func genRequests(cfg Config, nodes int) []*request {
	arr := newArrival(cfg.Arrival, sim.NewRNG(cfg.Seed^seedArrival))
	wrng := sim.NewRNG(cfg.Seed ^ seedWorkload)
	var hot []int
	if cfg.Load.HotFrac > 0 {
		hot = sim.NewRNG(cfg.Seed^seedHotSet).Sample(nodes, cfg.Load.HotNodes)
	}

	type tabKey struct{ k, bytes int }
	tabs := make(map[tabKey]core.SplitTable)
	reqs := make([]*request, cfg.Requests)
	for i := range reqs {
		at := arr.Next()
		k := cfg.Load.Ks[wrng.Intn(len(cfg.Load.Ks))]
		bytes := cfg.Load.Sizes[wrng.Intn(len(cfg.Load.Sizes))]
		var down func(int) bool
		if cfg.Down != nil {
			down = func(v int) bool { return cfg.Down(v, at) }
		}
		addrs := drawMembers(wrng, nodes, k, hot, cfg.Load.HotFrac, down)
		var ch chain.Chain
		var root int
		var tab core.SplitTable
		tEnd := cfg.TEnd(bytes)
		if cfg.Tuner == nil {
			if cfg.Less != nil {
				ch = chain.New(addrs, cfg.Less)
			} else {
				ch = chain.Unordered(addrs)
			}
			root, _ = ch.Index(addrs[0])
			tk := tabKey{k, bytes}
			var ok bool
			if tab, ok = tabs[tk]; !ok {
				tab = cfg.Plan(k, cfg.Software.Hold.At(bytes), tEnd)
				tabs[tk] = tab
			}
		}
		reqs[i] = &request{
			id:     i,
			arrive: at,
			k:      k,
			bytes:  bytes,
			addrs:  addrs,
			algo:   -1,
			ch:     ch,
			root:   root,
			tab:    tab,
			tHold:  cfg.Software.Hold.At(bytes),
			tEnd:   tEnd,
		}
	}
	return reqs
}

// drawMembers picks k distinct fabric nodes: the source first (uniform —
// skew models popular destinations, not popular senders), then k-1
// destinations, each drawn from the hot set with probability hotFrac and
// uniformly otherwise. Duplicate draws — and, when a down filter is
// given, nodes known to be down — are rejected; after a bounded streak
// of rejections (a tiny hot set that is already fully in the group) the
// draw falls back to a deterministic forward scan so generation always
// terminates on the same member set for the same stream. A nil down
// consumes exactly the draws the filterless generator did, keeping
// existing workloads bit-identical; once the forward scan has wrapped
// the whole fabric the down filter is waived (an almost-all-down fabric
// still yields a group; the recovery machinery owns the consequences).
func drawMembers(rng *sim.RNG, nodes, k int, hot []int, hotFrac float64, down func(int) bool) []int {
	isDown := func(v int) bool { return down != nil && down(v) }
	in := make(map[int]bool, k)
	members := make([]int, 0, k)
	add := func(v int) {
		in[v] = true
		members = append(members, v)
	}
	src := rng.Intn(nodes)
	for rejects := 0; isDown(src) && rejects <= 64+nodes; rejects++ {
		if rejects < 64 {
			src = rng.Intn(nodes)
		} else {
			src = (src + 1) % nodes
		}
	}
	add(src)
	for len(members) < k {
		v := rng.Intn(nodes)
		if len(hot) > 0 && rng.Float64() < hotFrac {
			v = hot[rng.Intn(len(hot))]
		}
		for rejects := 0; in[v] || (isDown(v) && rejects <= 64+nodes); rejects++ {
			if rejects < 64 {
				if len(hot) > 0 && rng.Float64() < hotFrac {
					v = hot[rng.Intn(len(hot))]
				} else {
					v = rng.Intn(nodes)
				}
				continue
			}
			v = (v + 1) % nodes
		}
		add(v)
	}
	return members
}
