package mcastsim

// DestStatus classifies how one chain position fared in a reliable
// multicast (RunReliable, Open, Serve). Plain Run delivers every
// position or fails wholesale, so its Result reports none; the engine
// records every position's outcome in this vocabulary so drivers and
// experiments share one definition.
type DestStatus uint8

const (
	// StatusDelivered: received on the first attempt of its final
	// assignment, along the originally planned tree.
	StatusDelivered DestStatus = iota
	// StatusRetried: received, but only after at least one timeout-driven
	// retransmission of some send on its path.
	StatusRetried
	// StatusAdopted: received through a repaired tree — a replanned
	// subtree after its planned parent or path was given up, or an
	// orphan re-assigned to a new sender.
	StatusAdopted
	// StatusAbandoned: never received; no live sender could reach it.
	StatusAbandoned
)

// String returns the lowercase status name.
func (s DestStatus) String() string {
	switch s {
	case StatusDelivered:
		return "delivered"
	case StatusRetried:
		return "retried"
	case StatusAdopted:
		return "adopted"
	case StatusAbandoned:
		return "abandoned"
	}
	return "unknown"
}

// Overhead aggregates the message-cost counters of a reliable multicast:
// everything the recovery machinery sent beyond the Worms of a clean
// run. The total fabric traffic of a recovered run is Sends; the
// recovery premium over a fault-free execution is Retransmits +
// RepairSends + OrphanSends.
type Overhead struct {
	// Sends is every message handed to the fabric, including the initial
	// tree and all recovery traffic.
	Sends int64
	// Retransmits counts re-issues of a timed-out or frozen send to the
	// same destination.
	Retransmits int64
	// Cancelled counts worms withdrawn from the fabric (each retransmit
	// or give-up first cancels the outstanding worm, so delivery stays
	// at-most-once).
	Cancelled int64
	// RepairSends counts sends issued by replanned subtrees after a
	// member was given up (subtree adoption).
	RepairSends int64
	// OrphanSends counts direct deliveries to orphaned members
	// re-assigned to a different live sender.
	OrphanSends int64
	// Repairs counts give-up events: a (sender, destination) pair
	// declared unroutable after exhausting its retry budget, triggering
	// a replan.
	Repairs int64
}
