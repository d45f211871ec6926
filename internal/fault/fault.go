// Package fault builds seeded, deterministic fault plans for wormhole
// fabrics: a Plan assigns each fabric channel a failure class (healthy,
// dead, degraded bandwidth, or transiently flaky) and implements
// wormhole.FaultModel, so installing it with Network.SetFaults degrades
// the fabric reproducibly. The same (topology, Spec) always yields the
// same plan on every platform — fault sweeps are as replayable as the
// healthy-path experiment tables.
//
// Injection and ejection channels are never faulted: a node whose only
// way in or out of the fabric is dead cannot participate in any
// experiment, and the paper's one-port model treats the network
// interface as part of the node, not the fabric. Faults therefore land
// only on fabric-internal channels, which is also where the routing
// fallbacks (mesh/torus adaptive detours, BMIN alternate ascent) can do
// something about them.
//
// # Window semantics
//
// Time-varying faults are phase-shifted modular windows over the cycle
// counter, evaluated at flit-acceptance time (wormhole.FaultModel.Up):
//
//   - A flaky channel's outage is the half-open prefix of its period:
//     with local time tl = (now + phase) mod FlakyPeriod, the channel is
//     down on tl in [0, FlakyDown) and up on tl in [FlakyDown,
//     FlakyPeriod). Each period thus contains exactly FlakyDown down
//     cycles, contiguous modulo the period; the boundary cycle tl ==
//     FlakyDown is the first up cycle, not the last down one.
//   - A degraded channel serves the single cycle tl == 0 of its
//     DegradedPeriod and refuses the other DegradedPeriod-1, a
//     1/DegradedPeriod duty cycle.
//
// Phases are drawn per channel at plan construction, so faulted
// channels do not pulse in lockstep; phase only shifts where a window
// falls, never its width.
package fault

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/wormhole"
)

// Class is a channel's failure class within a Plan.
type Class uint8

const (
	// Healthy channels behave normally.
	Healthy Class = iota
	// Dead channels never carry a flit; the routing layer detours around
	// them or reports the destination unreachable.
	Dead
	// Degraded channels accept one flit every DegradedPeriod cycles,
	// modelling a link retrained to a fraction of its bandwidth.
	Degraded
	// Flaky channels alternate outage and service windows: down for
	// FlakyDown cycles out of every FlakyPeriod, modelling transient
	// faults (thermal throttling, lossy retransmission storms).
	Flaky
)

// The fixed duty cycles of the time-varying classes: a degraded channel
// runs at 1/DegradedPeriod of its bandwidth (25%), and a flaky channel
// is down for FlakyDown cycles out of every FlakyPeriod (see the package
// comment for the exact window semantics).
const (
	DegradedPeriod = 4
	FlakyPeriod    = 64
	FlakyDown      = 16
)

// Spec parameterizes a fault plan. Fractions are of the fabric-internal
// channels (injection/ejection channels are never eligible); they are
// rounded to the nearest channel count and must sum to at most 1.
type Spec struct {
	// DeadFrac is the fraction of fabric channels that fail permanently.
	DeadFrac float64
	// DegradedFrac is the fraction running at a 1/DegradedPeriod duty
	// cycle.
	DegradedFrac float64
	// FlakyFrac is the fraction with periodic transient outages.
	FlakyFrac float64
	// Seed selects which channels fail and each channel's phase offset.
	Seed uint64
	// NodeOutages schedules node-level faults: each entry takes that
	// node's injection and ejection channels down atomically for the
	// half-open cycle window [From, To) (To == Forever for a permanent
	// crash). Outages are scheduled, not drawn, so they are independent
	// of Seed; see window.go for semantics and validation rules.
	NodeOutages []NodeOutage
	// Windows schedules explicit outage windows on individual channels,
	// in addition to (and validated against) any outage-derived windows.
	Windows []ChannelWindow
}

func (s Spec) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"DeadFrac", s.DeadFrac}, {"DegradedFrac", s.DegradedFrac}, {"FlakyFrac", s.FlakyFrac}} {
		if !(f.v >= 0 && f.v <= 1) { // also rejects NaN
			return fmt.Errorf("fault: %s %g outside [0,1]", f.name, f.v)
		}
	}
	if sum := s.DeadFrac + s.DegradedFrac + s.FlakyFrac; sum > 1 {
		return fmt.Errorf("fault: fractions sum to %g > 1", sum)
	}
	return nil
}

// Plan is an immutable channel-fault assignment for one topology. It
// implements wormhole.FaultModel and wormhole.DeadOnly. All state is fixed
// at construction, so a Plan may be shared by concurrently running
// networks.
type Plan struct {
	spec     Spec
	class    []Class
	phase    []int64 // per-channel offset desynchronizing duty cycles
	eligible int     // fabric-internal channel count
	counts   [4]int  // channels per class

	// Scheduled outage windows (node outages + explicit channel
	// windows), compiled by buildWindows. winStart is a per-channel
	// cumulative index into wins (NumChannels+1 entries); nil when the
	// spec schedules none, keeping the hot Up path a single nil check.
	winStart []int32
	wins     []window
}

// NewPlan draws a fault plan over the topology's fabric-internal
// channels. The same (topology, spec) always produces the same plan. It
// returns an error for an invalid spec.
func NewPlan(topo wormhole.Topology, spec Spec) (*Plan, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	p := &Plan{
		spec:  spec,
		class: make([]Class, topo.NumChannels()),
		phase: make([]int64, topo.NumChannels()),
	}
	protected := make([]bool, topo.NumChannels())
	for i := 0; i < topo.NumNodes(); i++ {
		protected[topo.InjectChannel(wormhole.NodeID(i))] = true
		protected[topo.EjectChannel(wormhole.NodeID(i))] = true
	}
	fabric := make([]wormhole.ChannelID, 0, topo.NumChannels())
	for c := 0; c < topo.NumChannels(); c++ {
		if !protected[c] {
			fabric = append(fabric, wormhole.ChannelID(c))
		}
	}
	p.eligible = len(fabric)

	round := func(frac float64) int { return int(frac*float64(len(fabric)) + 0.5) }
	nDead, nDeg, nFlaky := round(spec.DeadFrac), round(spec.DegradedFrac), round(spec.FlakyFrac)
	if total := nDead + nDeg + nFlaky; total > len(fabric) {
		nFlaky -= total - len(fabric) // rounding overshoot; fractions sum <= 1
	}

	rng := sim.NewRNG(spec.Seed ^ 0x5fd4_43b1_27f0_9c3d)
	picks := rng.Sample(len(fabric), nDead+nDeg+nFlaky)
	for i, pi := range picks {
		c := fabric[pi]
		switch {
		case i < nDead:
			p.class[c] = Dead
		case i < nDead+nDeg:
			p.class[c] = Degraded
			p.phase[c] = int64(rng.Uint64() % DegradedPeriod)
		default:
			p.class[c] = Flaky
			p.phase[c] = int64(rng.Uint64() % FlakyPeriod)
		}
	}
	for _, cl := range p.class {
		p.counts[cl]++
	}
	if err := p.buildWindows(topo); err != nil {
		return nil, err
	}
	return p, nil
}

// MustPlan is NewPlan for specs known valid at compile time; it panics on
// error.
func MustPlan(topo wormhole.Topology, spec Spec) *Plan {
	p, err := NewPlan(topo, spec)
	if err != nil {
		panic(err)
	}
	return p
}

// Dead implements wormhole.FaultModel.
func (p *Plan) Dead(c wormhole.ChannelID) bool { return p.class[c] == Dead }

// Up implements wormhole.FaultModel: whether channel c accepts a flit at
// cycle now. Healthy channels always do; degraded channels on one cycle
// in DegradedPeriod; flaky channels outside their outage window. Phases are
// per-channel so faulted channels do not pulse in lockstep.
func (p *Plan) Up(c wormhole.ChannelID, now int64) bool {
	if p.winStart != nil && p.windowedDown(c, now) {
		return false
	}
	switch p.class[c] {
	case Degraded:
		return (now+p.phase[c])%DegradedPeriod == 0
	case Flaky:
		return (now+p.phase[c])%FlakyPeriod >= FlakyDown
	case Dead:
		return false
	default:
		return true
	}
}

// OnlyDead implements wormhole.DeadOnly: it reports whether the plan's
// only faults are dead channels, with no degraded or flaky channel and no
// scheduled window (node outages are windows). Up is then true on every
// cycle for every channel that is not dead, so the fabric never refuses
// a flit to a worm.
func (p *Plan) OnlyDead() bool {
	return p.counts[Degraded] == 0 && p.counts[Flaky] == 0 && p.winStart == nil
}

// ClassOf returns channel c's failure class.
func (p *Plan) ClassOf(c wormhole.ChannelID) Class { return p.class[c] }

// DeadCount returns the number of dead channels.
func (p *Plan) DeadCount() int { return p.counts[Dead] }

// FaultedCount returns the number of non-healthy channels.
func (p *Plan) FaultedCount() int { return p.counts[Dead] + p.counts[Degraded] + p.counts[Flaky] }

// Eligible returns the number of fabric-internal channels the fractions
// were drawn over.
func (p *Plan) Eligible() int { return p.eligible }

// String summarizes the plan for logs and table notes.
func (p *Plan) String() string {
	s := fmt.Sprintf("fault plan seed=%d: %d dead, %d degraded(1/%d), %d flaky(%d/%d) of %d fabric channels",
		p.spec.Seed, p.counts[Dead], p.counts[Degraded], DegradedPeriod,
		p.counts[Flaky], FlakyDown, FlakyPeriod, p.eligible)
	if len(p.spec.NodeOutages) > 0 || len(p.spec.Windows) > 0 {
		s += fmt.Sprintf(", %d node outages, %d channel windows", len(p.spec.NodeOutages), len(p.spec.Windows))
	}
	return s
}
