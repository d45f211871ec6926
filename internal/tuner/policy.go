package tuner

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/traffic"
)

// Algo binds a surface algorithm name to its executable form: the
// chain-order flag and split-table builder the traffic and recovery
// engines need — the same (Ordered, Table) pair as exp.Algorithm.
type Algo struct {
	Name    string
	Ordered bool
	Table   func(k int, thold, tend model.Time) core.SplitTable
}

// Switch records one live algorithm change: at event-clock cycle At,
// the policy's pick for workload point (K, Bytes) moved From → To
// (surface algorithm indices) because observed-latency drift crossed a
// surface boundary.
type Switch struct {
	At       int64
	From, To int
	K, Bytes int
}

// PolicyConfig shapes a Policy.
type PolicyConfig struct {
	// Window is the sliding window length: how many of each algorithm's
	// most recent completion observations feed its drift estimate.
	// 0 defaults to 8.
	Window int
	// FaultPct is the fault-axis coordinate of the operating point (the
	// injected dead-link percentage the fabric is running under).
	FaultPct int
}

// MaxSwitches caps a Policy's recorded switch log; further switches
// still happen, they are only counted.
const MaxSwitches = 64

// Policy is the runtime selector: Choose answers admission-time
// algorithm queries by argmin over the surface's measured latencies,
// each scaled by that algorithm's current drift estimate; Observe
// feeds completed-request latencies back into the drift windows. Both
// are driven purely by the sim event clock, so a policy's entire
// decision sequence is a deterministic replay of its input sequence.
//
// Drift is the online t_hold/t_end recalibration in ratio form: an
// algorithm's predicted latency scales essentially linearly in the
// (t_hold, t_end) pair it was planned under, so the windowed mean of
// observed/predicted latency is exactly the factor by which the
// effective parameters have moved for that algorithm's tree shape —
// faults inflate deep chains (retransmission serialization) ahead of
// wide ones, which is what moves crossovers at runtime.
//
// Policy implements traffic.Selector; a single-shot caller runs the
// algorithm PickFor names.
type Policy struct {
	s       *Surface
	choices []traffic.Choice // one per surface algorithm
	pct     int
	window  int

	// Per-algorithm drift windows: ring buffers of observed/predicted
	// ratios, flattened at algo*window, plus fill counts, ring heads and
	// the cached windowed means.
	obs   []float64
	n     []int
	head  []int
	drift []float64

	last     []int8 // per-cell previous pick; -1 until first Choose
	switches []Switch
	nswitch  int
	dropped  int
	observed int
}

// NewPolicy builds the selector for a compiled surface. algos must
// match the surface's algorithm list name for name, in order — the
// surface defines the index vocabulary, the Algo list how to run each
// index.
func NewPolicy(s *Surface, algos []Algo, cfg PolicyConfig) (*Policy, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.Best == nil {
		return nil, fmt.Errorf("tuner: surface %q is not compiled", s.Platform)
	}
	if len(algos) != len(s.Algorithms) {
		return nil, fmt.Errorf("tuner: %d algorithm bindings for surface %q with %d algorithms", len(algos), s.Platform, len(s.Algorithms))
	}
	for i, a := range algos {
		if a.Name != s.Algorithms[i] {
			return nil, fmt.Errorf("tuner: algorithm binding %d is %q, surface %q expects %q", i, a.Name, s.Platform, s.Algorithms[i])
		}
		if a.Table == nil {
			return nil, fmt.Errorf("tuner: algorithm %q has no split-table builder", a.Name)
		}
	}
	if cfg.Window == 0 {
		cfg.Window = 8
	}
	if cfg.Window < 1 {
		return nil, fmt.Errorf("tuner: drift window %d must be >= 1", cfg.Window)
	}
	if cfg.FaultPct < 0 {
		return nil, fmt.Errorf("tuner: negative fault coordinate %d", cfg.FaultPct)
	}
	na := len(algos)
	p := &Policy{
		s:        s,
		choices:  make([]traffic.Choice, na),
		pct:      cfg.FaultPct,
		window:   cfg.Window,
		obs:      make([]float64, na*cfg.Window),
		n:        make([]int, na),
		head:     make([]int, na),
		drift:    make([]float64, na),
		last:     make([]int8, s.cells()),
		switches: make([]Switch, MaxSwitches),
	}
	for i, a := range algos {
		p.choices[i] = traffic.Choice{Algo: i, Ordered: a.Ordered, Plan: a.Table}
		p.drift[i] = 1
	}
	for i := range p.last {
		p.last[i] = -1
	}
	return p, nil
}

// Choose picks the algorithm for a request entering service at
// event-clock cycle at: the drift-scaled argmin over the surface cell
// of the current operating point. A pick that differs from the
// previous pick for the same cell is a live switch and is recorded.
//
// Choose runs per admitted request inside the traffic engine's event
// loop; selection must be allocation-free.
//
//lint:hotpath
func (p *Policy) Choose(at int64, k, bytes int) traffic.Choice {
	cell := p.s.CellIndex(k, bytes, p.pct)
	na := len(p.choices)
	best := argmin(p.s.Latency[cell*na:(cell+1)*na], p.drift)
	if prev := p.last[cell]; prev >= 0 && int(prev) != best {
		if p.nswitch < len(p.switches) {
			p.switches[p.nswitch] = Switch{At: at, From: int(prev), To: best, K: k, Bytes: bytes}
			p.nswitch++
		} else {
			p.dropped++
		}
	}
	p.last[cell] = int8(best)
	return p.choices[best]
}

// Observe feeds one completed request's measured service latency into
// algo's drift window. Observations against unmeasured surface cells
// are dropped: with no prediction there is no ratio.
//
// Observe runs per completed request inside the traffic engine's
// event loop; it must not allocate.
//
//lint:hotpath
func (p *Policy) Observe(at int64, algo, k, bytes int, latency int64) {
	if algo < 0 || algo >= len(p.choices) || latency <= 0 {
		return
	}
	pred := p.s.Latency[p.s.CellIndex(k, bytes, p.pct)*len(p.choices)+algo]
	if pred <= 0 {
		return
	}
	base := algo * p.window
	p.obs[base+p.head[algo]] = float64(latency) / pred
	p.head[algo]++
	if p.head[algo] == p.window {
		p.head[algo] = 0
	}
	if p.n[algo] < p.window {
		p.n[algo]++
	}
	sum := 0.0
	for j := 0; j < p.n[algo]; j++ {
		sum += p.obs[base+j]
	}
	p.drift[algo] = sum / float64(p.n[algo])
	p.observed++
}

// PickFor returns the current (drift-aware) algorithm index for a
// workload point without recording switch state — a read-only probe.
func (p *Policy) PickFor(k, bytes int) int {
	cell := p.s.CellIndex(k, bytes, p.pct)
	na := len(p.choices)
	return argmin(p.s.Latency[cell*na:(cell+1)*na], p.drift)
}

// Name returns the surface name of an algorithm index.
func (p *Policy) Name(i int) string { return p.s.Algorithms[i] }

// SurfaceHash returns the content hash of the policy's surface, for
// cache keys that must distinguish runs by what the selector knew.
func (p *Policy) SurfaceHash() string { return p.s.Hash() }

// Drift returns algorithm i's current windowed observed/predicted
// ratio (1 until observed).
func (p *Policy) Drift(i int) float64 { return p.drift[i] }

// Observations returns how many completion latencies fed the windows.
func (p *Policy) Observations() int { return p.observed }

// Switches returns the recorded live switches in event-clock order,
// plus how many further switches overflowed the log.
func (p *Policy) Switches() ([]Switch, int) { return p.switches[:p.nswitch], p.dropped }

// Recalibrated scales a base model parameter (t_end or t_hold) by the
// observation-weighted mean drift across all algorithms — the policy's
// current best estimate of how far the effective software parameters
// have moved from their calibrated values. With no observations it
// returns base unchanged.
func (p *Policy) Recalibrated(base model.Time) model.Time {
	var sum float64
	var n int
	for i := range p.choices {
		sum += p.drift[i] * float64(p.n[i])
		n += p.n[i]
	}
	if n == 0 {
		return base
	}
	return model.Time(float64(base)*sum/float64(n) + 0.5)
}
