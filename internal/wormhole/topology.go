// Package wormhole implements a deterministic flit-level simulator of
// wormhole-switched networks, the substrate the paper's evaluation runs
// on. It is topology-agnostic: a Topology supplies the channel graph and
// the routing function, and packages mesh and bmin provide the two
// fabrics the paper studies (2-D mesh with XY routing, bidirectional MIN
// with turnaround routing).
//
// Wormhole switching semantics, at flit granularity:
//
//   - A message (a "worm") is a pipeline of flits led by a header flit.
//   - Each unidirectional channel is owned by at most one worm at a time
//     and has a small flit buffer; one flit crosses a channel per cycle.
//   - The header acquires channels hop by hop (after a per-hop routing
//     delay); body flits follow in pipeline.
//   - If the header's requested channel is owned by another worm, the
//     entire worm stalls in place, holding every channel it has acquired
//     — this is what makes contention so expensive in wormhole networks
//     and why the paper's node-ordering matters.
//   - A channel is released only after the worm's last flit has left it.
//
// Every node has exactly one injection and one ejection channel (the
// one-port architecture of the paper's experiments), so a processor can
// feed at most one outgoing worm and absorb at most one incoming worm at
// a time.
//
// The simulator is single-threaded and fully deterministic: worms are
// serviced in creation order and channel arbitration is oldest-first, so
// a given (topology, config, workload) always produces identical results.
package wormhole

// NodeID identifies a processing node (a processor + network interface).
type NodeID int32

// ChannelID identifies a unidirectional channel (link) in the fabric,
// including each node's injection and ejection channels.
type ChannelID int32

// NoChannel is the sentinel for "no channel".
const NoChannel ChannelID = -1

// Topology describes a network fabric: its channel graph and routing
// function. Implementations must be deterministic and side-effect free.
type Topology interface {
	// NumNodes returns the number of processing nodes.
	NumNodes() int
	// NumChannels returns the total channel count; ChannelIDs are dense
	// in [0, NumChannels).
	NumChannels() int
	// InjectChannel returns the channel from node n's interface into the
	// fabric.
	InjectChannel(n NodeID) ChannelID
	// EjectChannel returns the channel from the fabric into node n's
	// interface.
	EjectChannel(n NodeID) ChannelID
	// Route appends to buf the candidate next channels, in preference
	// order, for a worm from src to dst whose header currently sits at
	// the downstream end of channel cur (cur may be an injection
	// channel). Route is never called once the worm holds dst's ejection
	// channel. Deterministic adaptive topologies may return several
	// candidates; the simulator takes the first free one.
	Route(cur ChannelID, src, dst NodeID, buf []ChannelID) []ChannelID
	// DescribeChannel renders a channel for traces and error messages.
	DescribeChannel(c ChannelID) string
}

// LinkGrouper is optionally implemented by topologies whose channels are
// virtual channels multiplexed over shared physical links (e.g. tori with
// dateline VCs). The simulator then enforces one flit per physical link
// per cycle across all of the link's virtual channels, with deterministic
// rotating fairness among worms.
type LinkGrouper interface {
	// NumLinks returns the number of physical links.
	NumLinks() int
	// LinkOf returns the physical link a channel is multiplexed onto, or
	// -1 for channels with a dedicated link (injection/ejection).
	LinkOf(c ChannelID) int
}

// RoutePlanner is optionally implemented by topologies whose route from
// a source to a destination is fixed at the source (the mesh's XY
// routing, the BMIN's deterministic ascents). AppendRoute appends to buf
// every channel Route leads a worm from src to dst through after its
// injection channel, ending with dst's ejection channel: the chain of
// Route's single candidates taken from InjectChannel(src). A topology
// whose route can branch (an adaptive ascent) appends nothing. The fast
// kernel plans each worm's route with it once, at Send, and its header
// then reads each hop instead of routing it; the reference kernel
// routes every hop with Route, so the two kernels' equivalence checks
// the plan.
type RoutePlanner interface {
	AppendRoute(src, dst NodeID, buf []ChannelID) []ChannelID
}

// FaultModel describes a degraded fabric. Implementations must be pure
// functions of their arguments (no clocks, no mutation), so that both
// scheduling kernels — and repeated runs — observe identical behaviour.
// Package fault provides the seeded, deterministic implementation.
type FaultModel interface {
	// Dead reports a permanently failed channel. The routing layer never
	// acquires a dead channel; a header whose every candidate is dead is
	// an unreachable destination (see Network.Err).
	Dead(c ChannelID) bool
	// Up reports whether channel c can accept a flit at cycle now. It is
	// consulted only for live (non-dead) channels and models degraded
	// bandwidth and transient outages. It must be deterministic in
	// (c, now). The fast kernel does not consult it under a model that
	// reports OnlyDead (see DeadOnly): a worm never holds a dead channel,
	// so there every channel a flit can enter is up.
	Up(c ChannelID, now int64) bool
}

// DeadOnly is optionally implemented by fault models that can report
// that their only faults are dead channels: Up is true for every channel
// that is not Dead, on every cycle. Such a model never refuses a flit,
// because a worm never acquires a dead channel, so the fast kernel moves
// and parks worms exactly as on a healthy fabric. Models that do not
// implement it, or report false, keep every flit gated on Up.
// Network.SetFaults reads the report once, so like Dead and Up it must
// not change while the model is installed.
type DeadOnly interface {
	OnlyDead() bool
}

// FaultRouter is optionally implemented by topologies that can route
// around dead channels. RouteDegraded plays the role of Route on a
// faulted fabric: it returns candidate next channels in preference order,
// none of them dead, with the healthy preferred candidate first — when no
// candidate channel is dead it must return exactly what Route returns,
// so a fabric with faults installed but none on the path behaves
// identically to a healthy one. An empty result means the destination is
// unreachable from this router under the fault set.
//
// Topologies that do not implement FaultRouter still work on a faulted
// fabric: the simulator filters dead channels out of Route's candidates,
// losing only the topology-specific detours.
type FaultRouter interface {
	RouteDegraded(cur ChannelID, src, dst NodeID, dead func(ChannelID) bool, buf []ChannelID) []ChannelID
}

// PathChannels is a convenience for tests and analysis: it returns the
// deterministic route a worm would take from src to dst on an otherwise
// idle network (always taking the first routing candidate), starting with
// the injection channel and ending with the ejection channel.
func PathChannels(t Topology, src, dst NodeID) []ChannelID {
	path := []ChannelID{t.InjectChannel(src)}
	eject := t.EjectChannel(dst)
	var buf []ChannelID
	for path[len(path)-1] != eject {
		buf = t.Route(path[len(path)-1], src, dst, buf[:0])
		if len(buf) == 0 {
			panic("wormhole: Route returned no candidates on idle network")
		}
		path = append(path, buf[0])
		if len(path) > 4*t.NumChannels() {
			panic("wormhole: routing loop detected")
		}
	}
	return path
}
