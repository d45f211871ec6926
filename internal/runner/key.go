// Package runner is the sharded, cache-resumable experiment engine.
//
// Every figure sweep in internal/exp decomposes into independent cells:
// one simulated multicast (or recovery run, concurrent batch, ...) with
// fully pinned inputs. A cell is identified by a Key — a canonical
// encoding of everything that determines its outcome — and the engine
// (engine.go) runs the cells of a manifest through the sim.ForEachProgress
// worker pool, optionally restricted to one shard of a cross-machine
// split and optionally backed by a content-addressed on-disk cache
// (cache.go). Because aggregation always consumes results in manifest
// order, a sweep assembled from any mix of computed and cached cells,
// across any shard split and worker count, is bit-identical to a serial
// cold run.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

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
// schema-prefixed. This string is what the content hash covers and what
// cache entries store for collision checks and debugging.
func (k Key) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema=%d|mode=%s|platform=%s|algo=%s|soft=%s", Schema, k.Mode, k.Platform, k.Algo, k.Soft)
	fmt.Fprintf(&b, "|k=%d|bytes=%d|x=%d|trial=%d|seed=%d|addrbytes=%d", k.K, k.Bytes, k.X, k.Trial, k.Seed, k.AddrBytes)
	fmt.Fprintf(&b, "|thold=%d|tend=%d|faultseed=%d|deadpct=%d|recseed=%d|extra=%s",
		k.THold, k.TEnd, k.FaultSeed, k.DeadPct, k.RecSeed, k.Extra)
	return b.String()
}

// Hash is the cell's content address: hex SHA-256 of the canonical
// string.
func (k Key) Hash() string {
	sum := sha256.Sum256([]byte(k.String()))
	return hex.EncodeToString(sum[:])
}
