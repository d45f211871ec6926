// Package traffic is the open-system workload engine: it injects
// multicast requests into a long-running fabric from deterministic
// arrival processes and measures steady-state service behaviour, where
// every other harness in this repository is closed-system (one multicast
// or a fixed batch per run).
//
// A run is shaped by three orthogonal axes:
//
//   - Arrival process: Poisson (exponential inter-arrival gaps) or
//     bursty on-off (Poisson inside fixed on-windows, silent in the off
//     windows), both at a configured long-run rate in requests per
//     million cycles.
//   - Workload mix: each request draws its group size from Ks, its
//     message size from Sizes, and its destinations uniformly or with
//     hot-spot skew (a seeded hot set attracts a configured fraction of
//     destination draws).
//   - Admission control: requests beyond the in-service limit wait in an
//     unbounded FIFO queue, or — under the bounded policy — are shed
//     once the queue is full. Shed requests are always reported as shed,
//     never silently dropped.
//
// Admitted requests run concurrently on one shared fabric, each as a
// group on one mcastsim delivery engine: nodes re-derive sends
// from the split table on delivery, and one-port spacing comes from the
// engine's per-node port ledger, so overlapping requests serialize their
// software sends honestly. Reliable mode arms the engine's per-send
// deadlines, retransmissions and give-up re-plans for faulted fabrics;
// plain mode is the same engine with no deadlines armed. Arrivals,
// admission and completion are this package's event source on top.
//
// The engine follows the event-queue-as-clock discipline: every
// decision — arrival, admission, send issue, injection, deadline,
// completion — fires at an exact simulated cycle from one
// sim.EventQueue, and all randomness comes from per-run seeded streams
// drawn before the fabric starts stepping. A run is therefore
// bit-identical across reruns, across the fast and reference wormhole
// kernels, and across shard/merge splits of a sweep — the same
// determinism contract the closed-system harnesses established.
package traffic

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/model"
)

// Arrival process kinds.
const (
	ArrivalPoisson = "poisson"
	ArrivalBursty  = "bursty"
)

// Admission policies.
const (
	AdmissionFIFO    = "fifo"    // unbounded FIFO queue, nothing is shed
	AdmissionBounded = "bounded" // bounded queue; overflow is shed
)

// ArrivalSpec parameterizes the request arrival process.
type ArrivalSpec struct {
	// Kind selects the process: ArrivalPoisson or ArrivalBursty.
	Kind string
	// RatePerMcycle is the long-run offered rate in requests per million
	// cycles. Must be > 0.
	RatePerMcycle float64
}

// The bursty process's fixed window: arrivals fall only in the first
// OnCycles of every OnCycles+OffCycles, at a rate scaled up so the
// long-run average still matches ArrivalSpec.RatePerMcycle.
const (
	OnCycles  = 16384
	OffCycles = 16384
)

// Workload parameterizes the per-request draws.
type Workload struct {
	// Ks are the candidate multicast group sizes (source included); each
	// request draws one uniformly. Every k must be in [2, fabric nodes].
	Ks []int
	// Sizes are the candidate message sizes in bytes; each request draws
	// one uniformly.
	Sizes []int
	// HotFrac is the probability a destination draw comes from the hot
	// set instead of the uniform fabric; 0 disables skew.
	HotFrac float64
	// HotNodes is the hot-set size (a seeded uniform sample of fabric
	// nodes). Required in [2, fabric nodes] when HotFrac > 0.
	HotNodes int
}

// Admission parameterizes the service and queueing model.
type Admission struct {
	// Policy is AdmissionFIFO or AdmissionBounded.
	Policy string
	// MaxInFlight is the number of requests multicast concurrently (the
	// service parallelism); arrivals beyond it queue. 0 defaults to 4.
	MaxInFlight int
	// QueueCap bounds the wait queue under AdmissionBounded (arrivals
	// beyond it are shed); 0 defaults to 16. Ignored under FIFO.
	QueueCap int
}

// Config parameterizes one open-system traffic run.
type Config struct {
	// Software carries the per-message software costs (t_send, t_recv,
	// t_hold), evaluated per request at its drawn message size.
	Software model.Software
	// AddrBytes is the per-destination-address payload charge, as in
	// mcastsim.Config.
	AddrBytes int
	// Arrival, Load and Admit are the three scenario axes.
	Arrival ArrivalSpec
	Load    Workload
	Admit   Admission
	// Requests is the total number of arrivals to inject (> 0); Warmup
	// is how many initial arrivals are excluded from steady-state
	// metrics (in [0, Requests)). The measurement window opens at the
	// first measured request's arrival.
	Requests, Warmup int
	// Less is the architecture chain order for request groups (ordered
	// algorithms); nil keeps the sampled draw order (OPT-tree style).
	// With a Tuner it is the order applied to Ordered choices.
	Less func(a, b int) bool
	// Plan builds the split table for a k-member group under the
	// measured parameters — the same signature as exp.Algorithm.Table.
	// Ignored (and may be nil) when Tuner is set.
	Plan func(k int, thold, tend model.Time) core.SplitTable
	// Tuner, when set, replaces the static Less/Plan pair with an
	// admission-time algorithm policy: at the cycle a request enters
	// service the engine asks Choose which algorithm to run it with and
	// builds the chain and split table from the returned Choice, and at
	// each completion it feeds the observed service latency back through
	// Observe so the policy can recalibrate and switch algorithms live.
	// Both calls happen at exact event-queue cycles, so a tuned run
	// keeps the full determinism contract. Nil keeps the static path
	// bit-identical to previous releases.
	Tuner Selector
	// TEnd maps a message size to its calibrated unicast latency
	// (mcastsim.Unicast); it shapes OPT tables and anchors Reliable-mode
	// delivery deadlines. Must be > 0 for every size in Load.Sizes.
	TEnd func(bytes int) model.Time
	// Reliable wraps every request in the reliable-delivery schedule:
	// per-send deadline mcastsim.Slack*TEnd, retransmission with seeded
	// bounded-exponential backoff (base TEnd/mcastsim.BackoffDivisor,
	// mcastsim.Retries retries), frozen-worm reclamation, and subtree
	// re-planning on give-up. Required on a faulted fabric: plain mode's
	// default no-progress watchdog fails a run on any unreachable send.
	Reliable bool
	// Seed drives every random draw of the run: arrival gaps, workload
	// mix, placements, hot set and backoff jitter each get an
	// independent derived stream.
	Seed uint64
	// MaxCycles bounds the run as a safety net; 0 derives a generous
	// default from the workload.
	MaxCycles int64
}

// Independent seed streams, derived from Config.Seed by xor so the axes
// can never alias each other's draws.
const (
	seedArrival  = 0xa441_9c3a_7001_55e5
	seedWorkload = 0x3a9e_77b1_c0de_f00d
	seedHotSet   = 0x5ca1_ab1e_0dd5_eed5
	seedBackoff  = 0xbac0_ff5e_ed00_77aa
)

// withDefaults fills zero-valued knobs.
func (c Config) withDefaults() Config {
	if c.Admit.MaxInFlight == 0 {
		c.Admit.MaxInFlight = 4
	}
	if c.Admit.QueueCap == 0 {
		c.Admit.QueueCap = 16
	}
	return c
}

// validate rejects misconfigurations with actionable errors. nodes is
// the fabric size.
func (c Config) validate(nodes int) error {
	switch c.Arrival.Kind {
	case ArrivalPoisson, ArrivalBursty:
	default:
		return fmt.Errorf("traffic: unknown arrival process %q (want %q or %q)", c.Arrival.Kind, ArrivalPoisson, ArrivalBursty)
	}
	// Written so NaN fails too; +Inf fails because the mean
	// inter-arrival gap would be 0 cycles.
	if !(c.Arrival.RatePerMcycle > 0 && c.Arrival.RatePerMcycle <= math.MaxFloat64) {
		return fmt.Errorf("traffic: arrival rate must be > 0 requests/Mcycle and finite, got %g", c.Arrival.RatePerMcycle)
	}
	switch c.Admit.Policy {
	case AdmissionFIFO, AdmissionBounded:
	default:
		return fmt.Errorf("traffic: unknown admission policy %q (want %q or %q)", c.Admit.Policy, AdmissionFIFO, AdmissionBounded)
	}
	if c.Admit.MaxInFlight < 1 {
		return fmt.Errorf("traffic: MaxInFlight must be >= 1, got %d", c.Admit.MaxInFlight)
	}
	if c.Admit.Policy == AdmissionBounded && c.Admit.QueueCap < 1 {
		return fmt.Errorf("traffic: bounded QueueCap must be >= 1, got %d", c.Admit.QueueCap)
	}
	if c.Requests < 1 {
		return fmt.Errorf("traffic: Requests must be >= 1, got %d", c.Requests)
	}
	if c.Warmup < 0 || c.Warmup >= c.Requests {
		return fmt.Errorf("traffic: Warmup %d outside [0, Requests=%d)", c.Warmup, c.Requests)
	}
	if len(c.Load.Ks) == 0 {
		return fmt.Errorf("traffic: Load.Ks must name at least one group size")
	}
	for _, k := range c.Load.Ks {
		if k < 2 || k > nodes {
			return fmt.Errorf("traffic: group size %d outside [2, %d nodes]", k, nodes)
		}
	}
	if len(c.Load.Sizes) == 0 {
		return fmt.Errorf("traffic: Load.Sizes must name at least one message size")
	}
	for _, b := range c.Load.Sizes {
		if b < 0 {
			return fmt.Errorf("traffic: negative message size %d", b)
		}
	}
	if !(c.Load.HotFrac >= 0 && c.Load.HotFrac <= 1) {
		return fmt.Errorf("traffic: HotFrac %g outside [0, 1]", c.Load.HotFrac)
	}
	if c.Load.HotFrac > 0 && (c.Load.HotNodes < 2 || c.Load.HotNodes > nodes) {
		return fmt.Errorf("traffic: HotNodes %d outside [2, %d nodes] with HotFrac %g", c.Load.HotNodes, nodes, c.Load.HotFrac)
	}
	if c.Plan == nil && c.Tuner == nil {
		return fmt.Errorf("traffic: Config.Plan (split-table builder) is required")
	}
	if c.TEnd == nil {
		return fmt.Errorf("traffic: Config.TEnd (calibrated unicast latency) is required")
	}
	for _, b := range c.Load.Sizes {
		if t := c.TEnd(b); t <= 0 {
			return fmt.Errorf("traffic: TEnd(%d bytes) = %d, need the calibrated unicast latency > 0", b, t)
		}
	}
	return nil
}

// Choice is one selectable algorithm, resolved by a Selector at
// admission time: the policy's own index for it (echoed in Observe and
// RequestResult.Algo), whether the chain follows the architecture
// order (Config.Less) or the sampled draw order, and the split-table
// builder — the same (Ordered, Plan) pair the static configuration
// spreads over Less/Plan.
type Choice struct {
	Algo    int
	Ordered bool
	Plan    func(k int, thold, tend model.Time) core.SplitTable
}

// Selector is the opt-in admission-time algorithm policy (see
// Config.Tuner). Choose is called once per request at its
// service-start cycle; Observe once per completed request at its
// completion cycle, with the observed service latency (start to done,
// queueing excluded — the closed-system quantity crossover surfaces
// are measured in). Implementations must be deterministic functions of
// their call history: the engine's calls arrive in event-queue order,
// so any internal state machine replays identically across reruns and
// kernels.
type Selector interface {
	Choose(at int64, k, bytes int) Choice
	Observe(at int64, algo, k, bytes int, latency int64)
}
