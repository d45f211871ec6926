// Package collective implements the scatter/all-gather broadcast of
// Barnett, Payne, van de Geijn and Watts ("Broadcasting on Meshes with
// Worm-hole Routing"), the architecture-specific algorithm the paper's
// introduction cites as "reported to perform nearly optimal" — the
// performance end of the performance/portability trade-off the paper
// studies.
//
// The algorithm broadcasts an m-byte message to p nodes in two phases:
//
//  1. Scatter: recursive halving over the chain splits the message so
//     node i ends up holding chunk i (about m/p bytes). Each link
//     carries O(m) total, not O(m log p).
//  2. Ring all-gather: every node forwards each chunk it acquires to its
//     ring successor until the chunk has visited everyone; each link
//     carries m*(p-1)/p bytes, fully pipelined.
//
// For large messages this moves ~2m per node instead of the tree
// broadcast's m per tree level, so it wins whenever bandwidth dominates;
// for small messages its ~2(p-1) software latencies lose badly.
// Experiment B4 measures the crossover against OPT-mesh and U-mesh on
// the flit-level simulator.
//
// The ring's wrap-around send (last chain node back to the first)
// violates the dimension-order direction lemma, so unlike OPT-mesh this
// algorithm is NOT contention-free on a mesh; the measured blocked
// cycles quantify what that costs.
package collective

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/mcastsim"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// Result reports one collective execution.
type Result struct {
	// Latency is when the last node holds the complete message,
	// measured from the root starting at time 0.
	Latency int64
	// Completions holds each chain position's completion time.
	Completions []int64
	// Worms is the number of point-to-point messages sent.
	Worms int64
	// BlockedCycles is total header-blocked time (network contention).
	BlockedCycles int64
	// InjectWaitCycles is one-port serialization time.
	InjectWaitCycles int64
}

// chunkSize returns the size of chunk i when bytes are split across p
// chunks: the first bytes%p chunks carry one extra byte. Chunks may be
// zero bytes for tiny messages; a zero-byte chunk still costs a header
// worm and the software latencies, which is exactly why scatter-collect
// loses at small sizes.
func chunkSize(bytes, p, i int) int {
	c := bytes / p
	if i < bytes%p {
		c++
	}
	return c
}

// ScatterAllgather broadcasts msgBytes from the chain head (index 0) to
// every chain node. The chain should be in architecture order (e.g.
// dimension order on meshes) so the scatter follows the contention-free
// recursive-halving pattern and ring neighbours are physically close.
func ScatterAllgather(net *wormhole.Network, ch chain.Chain, msgBytes int, cfg mcastsim.Config) (Result, error) {
	if err := ch.Validate(); err != nil {
		return Result{}, err
	}
	if err := mcastsim.CheckSizeAndAddresses(net, ch, msgBytes); err != nil {
		return Result{}, fmt.Errorf("collective: %w", err)
	}
	if err := net.Quiesced(); err != nil {
		return Result{}, fmt.Errorf("collective: fabric not idle: %w", err)
	}

	p := len(ch)
	d := &driver{
		net:     net,
		ch:      ch,
		bytes:   msgBytes,
		cfg:     cfg,
		cpuFree: make([]int64, p),
		held:    make([]int, p),
		res:     Result{Completions: make([]int64, p)},
		t0:      net.Now(),
	}
	for i := range d.res.Completions {
		d.res.Completions[i] = -1
	}
	// The root holds the complete message from the start; it still
	// relays ring chunks (the standard symmetric pipeline) but its own
	// completion is immediate.
	d.res.Completions[0] = 0
	if p == 1 {
		return d.res, nil
	}

	d.scatter(0, p-1, d.t0)
	stats, err := d.drain()
	if err != nil {
		return Result{}, err
	}
	d.res.Worms = stats.Worms
	d.res.BlockedCycles = stats.BlockedCycles
	d.res.InjectWaitCycles = stats.InjectWaitCycles
	for i, c := range d.res.Completions {
		if c < 0 {
			return Result{}, fmt.Errorf("collective: node %d never completed", ch[i])
		}
	}
	return d.res, nil
}

type driver struct {
	net    *wormhole.Network
	ch     chain.Chain
	bytes  int
	cfg    mcastsim.Config
	events sim.EventQueue
	t0     int64

	cpuFree []int64 // t_hold pacing per chain index
	held    []int   // chunks held so far per chain index
	res     Result
}

func (d *driver) spanBytes(from, to int) int {
	total := 0
	for i := from; i <= to; i++ {
		total += chunkSize(d.bytes, len(d.ch), i)
	}
	return total
}

// send issues a payload transfer from chain index a to b no earlier than
// at, respecting a's t_hold pacing; done fires when the receiver's
// software receive completes.
func (d *driver) send(a, b, payload int, at int64, done func(now int64)) {
	issue := at
	if d.cpuFree[a] > issue {
		issue = d.cpuFree[a]
	}
	d.cpuFree[a] = issue + d.cfg.Software.Hold.At(payload)
	inject := issue + d.cfg.Software.Send.At(payload)
	src, dst := wormhole.NodeID(d.ch[a]), wormhole.NodeID(d.ch[b])
	d.events.At(inject, func() {
		d.net.Send(src, dst, payload, nil, func(_ *wormhole.Worm, now int64) {
			recv := d.cfg.Software.Recv.At(payload)
			d.events.At(now+recv, func() { done(now + recv) })
		})
	})
}

// scatter distributes chunks [l, r], all currently held by chain index
// l, by recursive halving: the upper half is shipped to its first node,
// both halves recurse. When a node is down to its own chunk it enters
// the all-gather.
func (d *driver) scatter(l, r int, at int64) {
	holder := l
	for l < r {
		mid := (l + r) / 2
		payload := d.spanBytes(mid+1, r)
		lo, hi := mid+1, r
		d.send(holder, lo, payload, at, func(now int64) {
			d.scatter(lo, hi, now)
		})
		r = mid
	}
	d.acquire(holder, holder, at)
}

// acquire records that node i holds chunk c as of time t, forwards the
// chunk along the ring if the successor still needs it, and completes
// the node once it holds everything.
func (d *driver) acquire(i, c int, t int64) {
	p := len(d.ch)
	d.held[i]++
	if d.held[i] == p && d.res.Completions[i] < 0 {
		d.res.Completions[i] = t - d.t0
		if lat := t - d.t0; lat > d.res.Latency {
			d.res.Latency = lat
		}
	}
	next := (i + 1) % p
	if next == c {
		return // the chunk has visited every node except its origin
	}
	d.send(i, next, chunkSize(d.bytes, p, c), t, func(now int64) {
		d.acquire(next, c, now)
	})
}

// drain runs the event/fabric loop to completion under the no-progress
// watchdog, so a destination cut off by faults surfaces at the freeze
// with its cause and deadlock report instead of at the cycle deadline.
// It returns the counters the run added to the fabric's Stats.
func (d *driver) drain() (wormhole.Stats, error) {
	// Generous bound: every chunk crosses every link serially, twice
	// the multicast safety net.
	soft := d.cfg.Software.Send.At(d.bytes) + d.cfg.Software.Recv.At(d.bytes) + d.cfg.Software.Hold.At(d.bytes)
	deadline := d.t0 + 2*mcastsim.SafetyNet(d.net, d.bytes, 0, len(d.ch), soft) + 1<<22
	stats, err := mcastsim.Drive(d.net, &d.events, deadline, mcastsim.NewWatchdog(d.net, d.cfg))
	if err != nil {
		return stats, fmt.Errorf("collective: broadcast: %w", err)
	}
	return stats, nil
}
