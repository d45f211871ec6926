package traffic

import (
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// RequestResult is one request's service record. Times are cycles
// relative to the run start; Start and Done are -1 for shed requests.
type RequestResult struct {
	Arrive, Start, Done int64
	K, Bytes            int
	// Addrs is the request's chain (fabric node ids in chain order) and
	// Root the source's chain position.
	Addrs []int
	Root  int
	// Delivered flags each chain position that received the message;
	// nil for shed requests. Abandoned counts positions given up by the
	// Reliable-mode repair policy.
	Delivered []bool
	Abandoned int
	Shed      bool
	// Algo is the Selector's algorithm index for this request (see
	// Config.Tuner); -1 on the static path and for shed requests.
	Algo int
}

// Metrics are the steady-state aggregates over the measurement window,
// which opens at the first measured request's arrival (requests before
// Config.Warmup are excluded).
type Metrics struct {
	// Requests is the total arrival count, Measured the count inside the
	// window; Completed/Shed partition all requests by outcome and
	// CompletedMeasured/ShedMeasured the measured ones.
	Requests, Measured                  int
	Completed, Shed                     int
	CompletedMeasured, ShedMeasured     int
	AbandonedDests                      int
	Retransmits, RepairSends, Cancelled int64
	// WarmStart is the window-opening cycle, LastArrival the final
	// arrival, End the last measured completion.
	WarmStart, LastArrival, End int64
	// OfferedPerMcycle is the measured arrival rate; DeliveredPerMcycle
	// the measured completion rate. Both are requests per million cycles;
	// a widening gap (or sheds) marks saturation.
	OfferedPerMcycle, DeliveredPerMcycle float64
	// Completion-latency quantiles and mean (arrival to done, queueing
	// included) over measured completed requests.
	P50, P99, P999, MeanLatency float64
	// MeanQueueDelay/MaxQueueDelay cover admission-queue waiting
	// (arrival to service start) of measured admitted requests.
	MeanQueueDelay float64
	MaxQueueDelay  int64
	// MeanOccupancy is the time-averaged in-service request count over
	// the window.
	MeanOccupancy float64
	// Fabric aggregates over the whole run (wormhole.Stats deltas).
	Worms, BlockedCycles, InjectWaitCycles, Cycles int64
}

// Result reports one open-system traffic run.
type Result struct {
	Requests []RequestResult
	Metrics  Metrics
}

// collect assembles the Result from the engine's final state.
func (e *engine) collect(t0 int64, stats wormhole.Stats) Result {
	m := Metrics{
		Requests:    len(e.states),
		Measured:    len(e.states) - e.cfg.Warmup,
		Shed:        e.shedCount,
		WarmStart:   e.warmStart - t0,
		LastArrival: e.states[len(e.states)-1].req.arrive,
	}
	reqs := make([]RequestResult, len(e.states))
	var lat, qd []float64
	for i, rs := range e.states {
		rr := RequestResult{
			Arrive: rs.req.arrive,
			Start:  -1,
			Done:   -1,
			K:      rs.req.k,
			Bytes:  rs.req.bytes,
			Addrs:  []int(rs.req.ch),
			Root:   rs.req.root,
			Shed:   rs.shed,
			Algo:   rs.req.algo,
		}
		measured := i >= e.cfg.Warmup
		if rs.shed {
			if measured {
				m.ShedMeasured++
			}
		} else {
			rr.Start = rs.start - t0
			rr.Done = rs.done - t0
			rr.Delivered = rs.delivered
			rr.Abandoned = rs.abandoned
			m.Completed++
			m.AbandonedDests += rs.abandoned
			m.Retransmits += rs.overhead.Retransmits
			m.RepairSends += rs.overhead.RepairSends
			m.Cancelled += rs.overhead.Cancelled
			if measured {
				m.CompletedMeasured++
				if rr.Done > m.End {
					m.End = rr.Done
				}
				lat = append(lat, float64(rr.Done-rr.Arrive))
				wait := rr.Start - rr.Arrive
				qd = append(qd, float64(wait))
				if wait > m.MaxQueueDelay {
					m.MaxQueueDelay = wait
				}
			}
		}
		reqs[i] = rr
	}

	if span := m.LastArrival - m.WarmStart; span > 0 {
		m.OfferedPerMcycle = float64(m.Measured) / float64(span) * 1e6
	}
	if span := m.End - m.WarmStart; span > 0 {
		m.DeliveredPerMcycle = float64(m.CompletedMeasured) / float64(span) * 1e6
	}
	m.P50 = sim.Percentile(lat, 0.50)
	m.P99 = sim.Percentile(lat, 0.99)
	m.P999 = sim.Percentile(lat, 0.999)
	var ls, qs sim.Stats
	for _, x := range lat {
		ls.Add(x)
	}
	for _, x := range qd {
		qs.Add(x)
	}
	m.MeanLatency = ls.Mean()
	m.MeanQueueDelay = qs.Mean()
	m.MeanOccupancy = e.occ.Mean(t0 + m.End)

	m.Worms = stats.Worms
	m.BlockedCycles = stats.BlockedCycles
	m.InjectWaitCycles = stats.InjectWaitCycles
	m.Cycles = stats.Cycles
	return Result{Requests: reqs, Metrics: m}
}
