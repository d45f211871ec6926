// Package recover is the idle-fabric reachability oracle of reliable
// delivery: which chain positions a multicast can still reach under a
// fault model, and at what hop distance. The delivery engine
// (internal/mcastsim) gives a send up and picks graft points and
// adopters by it, and the chaos tests, the fuzzers, the F2 experiment
// and the benchmark judge delivered sets against it.
package recover

import (
	"repro/internal/chain"
	"repro/internal/wormhole"
)

// Routable reports whether a message from src would reach dst on an
// otherwise idle fabric under the fault model: the deterministic
// first-candidate router walk — RouteDegraded where the topology detours
// around dead channels, the dead-filtered Route otherwise — reaches dst's
// ejection channel. A nil fm means a healthy fabric. This is the
// ground-truth reachability the recovery layer's give-up decisions and
// the chaos harness's delivery oracle are both defined against: on a
// quiet fabric the simulator takes exactly this walk, so a send that
// Routable rejects can never complete no matter how often it is retried.
func Routable(topo wormhole.Topology, fm wormhole.FaultModel, src, dst wormhole.NodeID) bool {
	return HopDistance(topo, fm, src, dst) >= 0
}

// HopDistance returns the channel-hop length of the deterministic
// first-candidate router walk from src to dst under the fault model
// (the exact walk Routable takes and an uncontended worm follows), or
// -1 when the walk cannot reach dst. It is the distance metric the
// recovery layer ranks adopters and graft points by: fewer hops on the
// actual route means lower delivery latency and fewer channels exposed
// to further faults.
func HopDistance(topo wormhole.Topology, fm wormhole.FaultModel, src, dst wormhole.NodeID) int {
	dead := func(wormhole.ChannelID) bool { return false }
	if fm != nil {
		dead = fm.Dead
	}
	fr, hasFR := topo.(wormhole.FaultRouter)
	cur := topo.InjectChannel(src)
	eject := topo.EjectChannel(dst)
	var buf []wormhole.ChannelID
	steps := 0
	for ; cur != eject; steps++ {
		if steps > 4*topo.NumChannels() {
			return -1 // routing cycle under the fault set
		}
		if hasFR {
			buf = fr.RouteDegraded(cur, src, dst, dead, buf[:0])
		} else {
			buf = topo.Route(cur, src, dst, buf[:0])
			live := buf[:0]
			for _, c := range buf {
				if !dead(c) {
					live = append(live, c)
				}
			}
			buf = live
		}
		if len(buf) == 0 || dead(buf[0]) {
			return -1
		}
		cur = buf[0]
	}
	return steps
}

// Reachable computes which chain positions a reliable multicast can
// possibly deliver: the closure of Routable over the group members,
// starting from the source at chain index root — a member is reachable
// if some already-reachable member can route to it, since any delivered
// member may relay. The result is the per-position oracle the chaos
// harness asserts delivery against, and the "reachable fraction" curve
// the F2 experiment plots next to the measured delivered fraction.
func Reachable(topo wormhole.Topology, fm wormhole.FaultModel, ch chain.Chain, root int) []bool {
	in := make([]bool, len(ch))
	in[root] = true
	queue := make([]int, 0, len(ch))
	queue = append(queue, root)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range ch {
			if in[v] {
				continue
			}
			if Routable(topo, fm, wormhole.NodeID(ch[u]), wormhole.NodeID(ch[v])) {
				in[v] = true
				queue = append(queue, v)
			}
		}
	}
	return in
}
