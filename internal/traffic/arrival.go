package traffic

import "repro/internal/sim"

// arrival generates a deterministic non-decreasing stream of arrival
// cycles from a seeded RNG. All gaps for a run are drawn from one
// dedicated stream before the fabric starts stepping, so execution
// interleaving can never perturb the workload.
type arrival interface {
	// Next returns the next arrival cycle (relative to the run start).
	Next() int64
}

// newArrival builds the configured process. spec must already be
// validated and defaulted.
func newArrival(spec ArrivalSpec, rng *sim.RNG) arrival {
	switch spec.Kind {
	case ArrivalBursty:
		const period = OnCycles + OffCycles
		// Inside the on-windows the process runs hot by the inverse duty
		// cycle, so the long-run average matches the configured rate.
		scale := 1e6 / spec.RatePerMcycle * OnCycles / period
		return &bursty{rng: rng, scale: scale}
	default: // ArrivalPoisson
		return &poisson{rng: rng, scale: 1e6 / spec.RatePerMcycle}
	}
}

// expGap draws one exponential inter-arrival gap with the given mean,
// rounded to whole cycles and floored at 1 so the stream strictly
// advances past any finite burst.
func expGap(rng *sim.RNG, mean float64) int64 {
	g := int64(rng.Exp()*mean + 0.5)
	if g < 1 {
		g = 1
	}
	return g
}

// poisson is the memoryless process: i.i.d. exponential gaps.
type poisson struct {
	rng   *sim.RNG
	scale float64 // mean gap in cycles: 1e6/rate
	at    int64
}

func (p *poisson) Next() int64 {
	p.at += expGap(p.rng, p.scale)
	return p.at
}

// bursty is the on-off process: a Poisson stream over *active* time
// (on-windows only, at the scaled-up on-rate), mapped to wall time by
// skipping the off-windows. Every arrival lands strictly inside an
// on-window (at % period < on — the duty-cycle property the statistical
// tests assert), and because off-time is skipped rather than clamped
// away, the long-run wall-clock rate matches the configured average
// exactly.
type bursty struct {
	rng    *sim.RNG
	scale  float64 // mean gap in active cycles
	active int64   // cumulative on-window cycles consumed
}

func (b *bursty) Next() int64 {
	b.active += expGap(b.rng, b.scale)
	return (b.active/OnCycles)*(OnCycles+OffCycles) + b.active%OnCycles
}
