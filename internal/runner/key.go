// Package runner is the sharded, cache-resumable experiment engine.
//
// Every figure sweep in internal/exp decomposes into independent cells:
// one simulated multicast (or recovery run, concurrent batch, ...) with
// fully pinned inputs. A cell is identified by a Key — a canonical
// encoding of everything that determines its outcome — and the engine
// (engine.go) runs the cells of a manifest through the sim.ForEachProgress
// worker pool, optionally restricted to one shard of a cross-machine
// split and optionally backed by an on-disk cache of append-only logs,
// one per handle, indexed by key at open (cache.go). Because
// aggregation always consumes results in manifest order, a sweep
// assembled from any mix of computed and cached cells, across any shard
// split and worker count, is bit-identical to a serial cold run.
package runner

import "strconv"

// Schema versions the key encoding and the semantics behind it (cell
// payload layout, simulator defaults not spelled out in the key). Bump
// it whenever a change makes old cached results wrong for new code:
// every old cache entry then simply misses.
//
// Schema history:
//
//	1: initial layout.
//	2: recover-mode orphan re-assignment picks the nearest delivered
//	   adopter by hop distance (was: lowest chain position), changing
//	   recover and netsim-recover payloads; adds churn modes.
const Schema = 2

// Key identifies one cell by its computation inputs, not by the figure
// that wants it — two figures that request the same simulation share
// the same cache entry. The zero value of unused fields is canonical
// (e.g. FaultSeed stays 0 on healthy runs), so keys are comparable
// across call sites.
type Key struct {
	// Mode is the kind of computation: "mcast" (one multicast on a
	// healthy fabric), "fault" (multicast on a degraded fabric),
	// "recover" (reliable-delivery run plus reachability oracle),
	// "conc" (concurrent batch), "temporal" (tuner trial), "bcast" /
	// "scatter" (full-machine broadcast variants), "traffic" (one
	// open-system run at an offered rate, carried in X), "churn"
	// (reliable multicast under a membership churn schedule, rate in
	// X), "netsim" / "netsim-recover" / "netsim-traffic" /
	// "netsim-churn" (CLI single runs).
	Mode string
	// Platform is the fabric label, which pins topology, size and
	// routing policy ("16x16 mesh", "128-node BMIN (straight ascent)").
	Platform string
	// Algo is the tree algorithm label ("U-mesh", "OPT-min", ...).
	Algo string
	// Soft is the canonical rendering of the software cost model.
	Soft string
	// K is the multicast size, Bytes the message size.
	K, Bytes int
	// X is the figure's x-value when it is not already K or Bytes
	// (group count, dead-link percent); 0 otherwise.
	X int
	// Trial is the placement index, Seed the placement seed.
	Trial int
	Seed  uint64
	// AddrBytes is the per-address payload charge.
	AddrBytes int
	// THold and TEnd are the measured model parameters the split table
	// was built from.
	THold, TEnd int64
	// FaultSeed is the fully derived fault-plan seed (0 = healthy) and
	// DeadPct the dead-link percentage of the plan.
	FaultSeed uint64
	DeadPct   int
	// RecSeed seeds the recovery layer's backoff draws (recover mode).
	RecSeed uint64
	// Extra carries mode-specific parameters that have no field of
	// their own (tuner iterations, netsim deadline).
	Extra string
}

// String renders the key canonically: fixed field order, one line,
// schema-prefixed. This string is what the cache indexes results by and
// what each of its entries stores. It is built in a 512-byte stack
// buffer, which holds any key of the repository's figures and CLIs, so
// the only allocation is the string itself, at its exact size.
func (k Key) String() string {
	var buf [512]byte
	b := strconv.AppendInt(append(buf[:0], "schema="...), Schema, 10)
	b = append(append(b, "|mode="...), k.Mode...)
	b = append(append(b, "|platform="...), k.Platform...)
	b = append(append(b, "|algo="...), k.Algo...)
	b = append(append(b, "|soft="...), k.Soft...)
	b = strconv.AppendInt(append(b, "|k="...), int64(k.K), 10)
	b = strconv.AppendInt(append(b, "|bytes="...), int64(k.Bytes), 10)
	b = strconv.AppendInt(append(b, "|x="...), int64(k.X), 10)
	b = strconv.AppendInt(append(b, "|trial="...), int64(k.Trial), 10)
	b = strconv.AppendUint(append(b, "|seed="...), k.Seed, 10)
	b = strconv.AppendInt(append(b, "|addrbytes="...), int64(k.AddrBytes), 10)
	b = strconv.AppendInt(append(b, "|thold="...), k.THold, 10)
	b = strconv.AppendInt(append(b, "|tend="...), k.TEnd, 10)
	b = strconv.AppendUint(append(b, "|faultseed="...), k.FaultSeed, 10)
	b = strconv.AppendInt(append(b, "|deadpct="...), int64(k.DeadPct), 10)
	b = strconv.AppendUint(append(b, "|recseed="...), k.RecSeed, 10)
	b = append(append(b, "|extra="...), k.Extra...)
	return string(b)
}
