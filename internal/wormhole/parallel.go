package wormhole

// Deterministic domain-parallel stepping.
//
// The fabric's nodes are partitioned into P spatial domains (contiguous
// NodeID ranges by default), every worm belongs to the domain of its
// source node, and phase A of each cycle — flit movement — runs the
// domains concurrently on a persistent worker pool. Phase A is the only
// phase worth parallelizing (it is O(active flits) while phase B's
// header routing is O(worms) with cached verdicts), and it is the only
// phase that *can* be parallelized without speculation: with exclusive
// channel ownership and no shared physical links (n.lg == nil), a
// worm's flit transitions are a pure function of its own state plus the
// read-only fault model, so per-worm post-states are independent of
// visiting order. The cross-worm effects are all commutative or
// reorderable:
//
//   - FlitHops and the ownership epoch are sums: each domain accumulates
//     privately and the merge adds them in fixed domain-index order.
//   - progress/faultStall are ORs.
//   - Channel releases write distinct owner[] entries (a channel has one
//     owner), and no phase-A code reads owner[].
//   - The asleep flags are one byte per slot, so concurrent domains
//     never touch the same memory location.
//
// The one order-sensitive output is the completion list: reap fires
// arrival callbacks in the order phase A discovered completions, which
// for the serial kernel is the rotation order (start+i)%k over the
// active list. Each domain therefore records its completions privately,
// and the merge re-inserts them into n.completed sorted by that serial
// rotation position ((idx-start) mod k, with idx the worm's position in
// the active list) — a fixed (domain-index, serial-position) merge
// order, making the result bit-identical to the serial kernels for any
// P and any partition. The three-way differential and fuzz suites in
// kernel_diff_test.go, parallel_test.go and fuzz_test.go enforce this.
//
// Synchronization is one barrier per cycle: the pool fans phase A out
// to the workers and joins them before the serial merge, phase B and
// reap run on the caller's goroutine. Worms cross domain boundaries
// freely — acquisition happens in serial phase B, so a "boundary event"
// is simply a channel whose owner lives in another domain, and phase A
// never inspects other worms' channels.

import "repro/internal/sim"

// domainAcc is one domain's private phase-A accumulator, padded so two
// domains' hot counters never share a cache line.
type domainAcc struct {
	flitHops   int64
	releases   int64 // epoch and owned-count delta (one per released channel)
	progress   bool
	faultStall bool
	completed  []int32 // slots completed this cycle, domain-local order
	_          [16]byte
}

// SetParallelism partitions the fabric into p contiguous node domains
// and steps them concurrently on p-1 persistent worker goroutines (the
// caller's goroutine runs domain 0). p == 1 restores serial stepping
// and stops the workers. Results are bit-identical to the serial
// kernels for every p; parallelism is purely a wall-clock optimization.
// Fabrics with shared physical links (virtual channels) and networks
// with an attached Observer silently run the serial fast kernel, which
// is observably equivalent. Call Close when done with a parallel
// network so the workers exit. SetParallelism may only be called while
// the fabric is idle; p < 1 panics, p above the node count is clamped.
func (n *Network) SetParallelism(p int) {
	if len(n.worms) != 0 {
		panic("wormhole: SetParallelism with active worms")
	}
	if p < 1 {
		panic("wormhole: SetParallelism with p < 1")
	}
	if nn := n.topo.NumNodes(); p > nn {
		p = nn
	}
	if p == n.par {
		return
	}
	n.stopPool()
	n.par = p
	if p == 1 {
		n.domOf, n.domList, n.domAcc = nil, nil, nil
		return
	}
	nodes := n.topo.NumNodes()
	n.domOf = make([]int32, nodes)
	for u := range n.domOf {
		n.domOf[u] = int32(u * p / nodes)
	}
	n.domList = make([][]int32, p)
	n.domAcc = make([]domainAcc, p)
	n.pool = sim.NewPool(p, n.runDomain)
	n.reserve()
}

// Parallelism returns the configured domain count (1 = serial).
func (n *Network) Parallelism() int {
	if n.par < 1 {
		return 1
	}
	return n.par
}

// Close stops the worker goroutines of a parallel network and reverts
// it to serial stepping. The network remains usable. Close is
// idempotent and a no-op on serial networks.
func (n *Network) Close() {
	if len(n.worms) != 0 {
		panic("wormhole: Close with active worms")
	}
	n.stopPool()
	n.par = 1
	n.domOf, n.domList, n.domAcc = nil, nil, nil
}

func (n *Network) stopPool() {
	if n.pool != nil {
		n.pool.Close()
		n.pool = nil
	}
}

// stepParallel is stepFast with phase A fanned out across the domains.
// Phase structure, phase B and reap are identical to the serial kernel;
// see the package comment above for the determinism argument.
//
//lint:hotpath
func (n *Network) stepParallel() {
	n.now++
	n.stats.Cycles++
	n.progress = false
	n.faultStall = false
	if k := len(n.worms); k > 0 {
		start := int(n.rotation % int64(k))
		n.rotation++
		n.pool.Run()
		// Merge the domain accumulators in fixed domain-index order.
		for d := range n.domAcc {
			acc := &n.domAcc[d]
			n.stats.FlitHops += acc.flitHops
			n.epoch += acc.releases
			n.owned -= int(acc.releases)
			if acc.progress {
				n.progress = true
			}
			if acc.faultStall {
				n.faultStall = true
			}
			acc.flitHops, acc.releases = 0, 0
			acc.progress, acc.faultStall = false, false
		}
		// Re-establish the serial completion order: domains in index
		// order, each completion inserted at its rotation position.
		for d := range n.domAcc {
			acc := &n.domAcc[d]
			for _, s := range acc.completed {
				n.insertCompleted(n.slots[s], start, k)
			}
			acc.completed = acc.completed[:0]
		}
	}
	for _, w := range n.worms {
		n.routeHeaderFast(w)
	}
	if len(n.completed) > 0 {
		n.reap()
	}
}

// insertCompleted inserts w into n.completed keeping the list sorted by
// serial rotation position (idx-start) mod k — the order the serial
// phase A would have discovered the completions. Completion counts per
// cycle are small, so insertion sort beats anything with allocation or
// indirection; cap(completed) is reserved by Send.
//
//lint:hotpath
func (n *Network) insertCompleted(w *Worm, start, k int) {
	pos := int(w.idx) - start
	if pos < 0 {
		pos += k
	}
	j := len(n.completed)
	n.completed = n.completed[:j+1]
	for j > 0 {
		p := int(n.completed[j-1].idx) - start
		if p < 0 {
			p += k
		}
		if p <= pos {
			break
		}
		n.completed[j] = n.completed[j-1]
		j--
	}
	n.completed[j] = w
}

// runDomain is one domain's phase A: scan its worms in creation order,
// skipping sleepers, accumulating into the domain's private counters.
// Invoked concurrently for distinct d by the worker pool.
//
//lint:hotpath
func (n *Network) runDomain(d int) {
	acc := &n.domAcc[d]
	for _, s := range n.domList[d] {
		if n.asleep[s] != 0 {
			continue
		}
		n.moveFlitsPar(n.slots[s], acc)
	}
}

// moveFlitsPar is moveFlitsFast writing to a domain accumulator instead
// of network-global state. Shared physical links are impossible here
// (the parallel kernel requires n.lg == nil), so the linkFree gate of
// the serial kernel is vacuous and omitted; the fault model's Up/Dead
// are read-only and safe to consult concurrently.
//
//lint:hotpath
func (n *Network) moveFlitsPar(w *Worm, acc *domainAcc) {
	if w.done || len(w.path) == 0 {
		return
	}
	moved, stalled := false, false
	last := len(w.path) - 1
	// Consumption at the destination interface.
	if w.routed && w.occ(last) > 0 {
		moved = true
		w.passed[last]++
		acc.flitHops++
		if w.passed[last] == w.flits {
			n.releasePar(w, last, acc)
			w.done = true
			w.ArrivedAt = n.now
			// Indexed push: reserve grows every domain's completion
			// buffer to cover the whole active list.
			j := len(acc.completed)
			acc.completed = acc.completed[:j+1]
			acc.completed[j] = w.slot
		}
	}
	// Interior hops.
	for i := last - 1; i >= w.tail; i-- {
		if w.occ(i) > 0 && w.occ(i+1) < n.cfg.BufFlits {
			if !n.chanUp(w.path[i+1]) {
				acc.faultStall = true
				stalled = true
				continue
			}
			moved = true
			w.passed[i]++
			acc.flitHops++
			if w.entered(i+1) == 1 && i+1 == last && !w.routed {
				// The header flit just reached the frontier router.
				w.headerReadyAt = n.now + n.cfg.RouterDelay
			}
			if w.passed[i] == w.flits {
				n.releasePar(w, i, acc)
			}
		}
	}
	// Injection from the source interface.
	if w.injected < w.flits && w.occ(0) < n.cfg.BufFlits {
		if !n.chanUp(w.path[0]) {
			acc.faultStall = true
			stalled = true
		} else {
			moved = true
			w.injected++
			acc.flitHops++
			if w.injected == 1 {
				w.InjectedAt = n.now
				if last == 0 && !w.routed {
					w.headerReadyAt = n.now + n.cfg.RouterDelay
				}
			}
		}
	}
	if moved {
		acc.progress = true
	} else if !stalled {
		n.asleep[w.slot] = 1
	}
}

// releasePar is release for phase-A workers: the epoch bump and the
// owned-channel count are deferred to the merge (counted in
// acc.releases) and no observer can be attached on the parallel path.
//
//lint:hotpath
func (n *Network) releasePar(w *Worm, i int, acc *domainAcc) {
	c := w.path[i]
	if n.owner[c] != w.slot {
		n.badRelease(w, c)
	}
	n.owner[c] = -1
	w.tail = i + 1
	acc.releases++
}
