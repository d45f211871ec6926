package exp

// Experiment F3: open-system service under sustained multicast load.
// Every other figure is closed-system — one multicast (or one batch) per
// measurement. F3 drives the internal/traffic engine instead: seeded
// Poisson (or bursty) arrivals at a swept offered rate, a mixed-k
// mixed-size workload, and a bounded service stage, all on one shared
// fabric. The output is the classic throughput/latency pair of curves:
// delivered rate vs offered rate (which peels away from the diagonal at
// saturation) and p99 completion latency vs offered rate (which turns
// upward at the same knee). The paper's tuning claim reappears here as a
// capacity claim: a tree that is faster in isolation saturates the
// open system at a higher offered rate.

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/traffic"
)

// F3Tables bundles the three views of experiment F3 over one rate sweep.
type F3Tables struct {
	// Latency is p99 completion latency (arrival to last delivery,
	// queueing included) vs offered rate.
	Latency *Table
	// Throughput is delivered rate vs offered rate, with the measured
	// offered rate as a reference column; a gap between a series and the
	// reference marks saturation.
	Throughput *Table
	// Queue is the mean admission-queue delay vs offered rate — the
	// queueing-theory view of the same knee.
	Queue *Table
}

// TrafficScenario pins the workload and service axes shared by every
// cell of one F3 sweep; the offered rate is the x axis. Arrivals are
// Poisson, destinations uniform and admission an unbounded FIFO queue
// (netsim -traffic runs the engine's other arrival, admission and
// hot-spot settings).
type TrafficScenario struct {
	// Ks and Sizes are the per-request group-size and message-size mixes.
	Ks, Sizes []int
	// Requests arrivals per run, the first Warmup excluded from metrics.
	Requests, Warmup int
	// MaxInFlight is the service parallelism.
	MaxInFlight int
	// Trials is the number of independent runs per (rate, algorithm)
	// point. Each trial is a full open-system run, so F3 keeps this far
	// below the closed-system figures' 16.
	Trials int
}

// DefaultTrafficScenario is the headline F3 configuration: a mixed
// workload with 4-way service.
func DefaultTrafficScenario() TrafficScenario {
	return TrafficScenario{
		Ks:          []int{8, 16},
		Sizes:       []int{1024},
		Requests:    96,
		Warmup:      16,
		MaxInFlight: 4,
		Trials:      3,
	}
}

// DefaultTrafficRates is the offered-rate grid (requests per Mcycle) of
// the headline F3 figure, spanning well below to well past the knee of
// the default scenario on the 16x16 mesh and 128-node BMIN.
func DefaultTrafficRates() []int {
	return []int{50, 100, 200, 400, 800, 1600}
}

// extra canonically encodes the scenario and the measured calibration
// for the cell key: everything that shapes a traffic run and is not
// already a first-class Key field.
func (sc TrafficScenario) extra(tends map[int]model.Time) string {
	ints := func(xs []int) string {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = fmt.Sprint(x)
		}
		return strings.Join(parts, "+")
	}
	tendParts := make([]string, len(sc.Sizes))
	for i, b := range sc.Sizes {
		tendParts[i] = fmt.Sprintf("%d:%d", b, tends[b])
	}
	// The zeros stand for the bursty window, the bounded queue and the
	// hot set, which F3 does not use; printing them keeps every cached
	// F3 cell's key.
	return fmt.Sprintf("arr=%s/0/0,adm=%s/%d/0,req=%d,warm=%d,ks=%s,sizes=%s,hot=0/0,tends=%s",
		traffic.ArrivalPoisson, traffic.AdmissionFIFO, sc.MaxInFlight,
		sc.Requests, sc.Warmup, ints(sc.Ks), ints(sc.Sizes), strings.Join(tendParts, "+"))
}

// trafficCell builds the engine cell for one open-system run: algorithm
// a serving scenario sc at the given offered rate on the suite's fabric.
// The rate rides in Key.X and the scenario (plus the measured t_end per
// size) in Key.Extra, so the key pins every input without widening the
// schema. Every reported metric is a deterministic function of the key,
// so cache round-trips replay a computed cell bit for bit.
func (s *Suite) trafficCell(a Algorithm, rate, trial int, sc TrafficScenario, tends map[int]model.Time) runner.Cell {
	return runner.Cell{
		Key: runner.Key{
			Mode: "traffic", Platform: s.Platform.Name, Algo: a.keyID(), Soft: SoftwareKey(s.Software),
			X: rate, Trial: trial, Seed: s.Seed, AddrBytes: s.AddrBytes,
			Extra: sc.extra(tends),
		},
		Run: func() (runner.Result, error) {
			var less func(x, y int) bool
			if a.Ordered {
				less = s.Platform.Less
			}
			res, err := traffic.Run(s.Platform.NewNet(), traffic.Config{
				Software:  s.Software,
				AddrBytes: s.AddrBytes,
				Arrival:   traffic.ArrivalSpec{Kind: traffic.ArrivalPoisson, RatePerMcycle: float64(rate)},
				Load:      traffic.Workload{Ks: sc.Ks, Sizes: sc.Sizes},
				Admit:     traffic.Admission{Policy: traffic.AdmissionFIFO, MaxInFlight: sc.MaxInFlight},
				Requests:  sc.Requests,
				Warmup:    sc.Warmup,
				Less:      less,
				Plan:      a.Table,
				TEnd:      func(b int) model.Time { return tends[b] },
				// The same per-trial seed derivation as Suite.placement, so
				// every algorithm at every rate of a trial faces the same
				// arrival pattern and workload mix — common random numbers
				// across series, as in the closed-system sweeps.
				Seed: s.Seed + uint64(trial)*0x9e37,
			})
			if err != nil {
				return runner.Result{}, err
			}
			m := res.Metrics
			return runner.Result{Metrics: map[string]float64{
				"offered":   m.OfferedPerMcycle,
				"delivered": m.DeliveredPerMcycle,
				"p50":       m.P50,
				"p99":       m.P99,
				"p999":      m.P999,
				"meanlat":   m.MeanLatency,
				"qdelay":    m.MeanQueueDelay,
				"maxqdelay": float64(m.MaxQueueDelay),
				"occ":       m.MeanOccupancy,
				"shed":      float64(m.ShedMeasured),
			}}, nil
		},
	}
}

// SaturationFactor is the knee criterion of the F3 notes and tests: a
// series is saturated at the first rate whose mean p99 completion
// latency reaches this multiple of its lowest-rate p99 (or where any
// measured request was shed).
const SaturationFactor = 3.0

// SaturationRate finds column col's saturation point in an F3 latency
// table: the first row whose mean reaches factor times the first row's
// mean, or whose N carries a shed marker via the companion sheds slice
// (nil = ignore sheds). ok is false when the sweep never saturates —
// the series sustains every offered rate tried.
func SaturationRate(latency *Table, col int, sheds []int, factor float64) (rate float64, ok bool) {
	if len(latency.Rows) == 0 {
		return 0, false
	}
	base := latency.Rows[0].Cells[col].Mean
	for ri, row := range latency.Rows {
		if row.Cells[col].Mean >= base*factor && base > 0 {
			return row.X, true
		}
		if sheds != nil && sheds[ri] > 0 {
			return row.X, true
		}
	}
	return 0, false
}

// TrafficSweep runs experiment F3: the scenario's open-system workload
// at each offered rate in rates, for the five tuned-tree series (U-mesh,
// OPT-tree, OPT-mesh on the mesh suite; U-min, OPT-min on the BMIN
// suite). Rates are requests per Mcycle, each > 0, in increasing order.
func TrafficSweep(meshSuite, bminSuite *Suite, rates []int, sc TrafficScenario) (*F3Tables, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("exp: traffic sweep needs at least one offered rate")
	}
	for i, r := range rates {
		if r <= 0 {
			return nil, fmt.Errorf("exp: offered rate %d must be > 0 requests/Mcycle", r)
		}
		if i > 0 && r <= rates[i-1] {
			return nil, fmt.Errorf("exp: offered rates must increase (got %d after %d)", r, rates[i-1])
		}
	}
	cols := []series{
		{meshSuite, Binomial("U-mesh")},
		{meshSuite, OptUnordered("OPT-tree")},
		{meshSuite, Opt("OPT-mesh")},
		{bminSuite, Binomial("U-min")},
		{bminSuite, Opt("OPT-min")},
	}
	trials := sc.Trials
	if trials <= 0 {
		trials = 3
	}
	sc.Trials = trials

	algoNames := seriesNames(cols)
	mix := fmt.Sprintf("k in %v, sizes %v", sc.Ks, sc.Sizes)
	newTable := func(title, ylabel string, algos []string) *Table {
		return &Table{
			Title:      title,
			XLabel:     "offered load (requests/Mcycle)",
			YLabel:     ylabel,
			Algorithms: algos,
		}
	}
	f3 := &F3Tables{
		Latency: newTable(
			fmt.Sprintf("F3a: p99 completion latency vs offered load (%s, %s arrivals)", mix, traffic.ArrivalPoisson),
			"p99 completion latency (cycles, arrival to last delivery)", algoNames),
		Throughput: newTable(
			fmt.Sprintf("F3b: delivered throughput vs offered load (%s, %s arrivals)", mix, traffic.ArrivalPoisson),
			"delivered rate (requests/Mcycle, measured window)",
			append(append([]string{}, algoNames...), "offered (measured)")),
		Queue: newTable(
			fmt.Sprintf("F3c: admission-queue delay vs offered load (%s, %s arrivals)", mix, traffic.ArrivalPoisson),
			"mean queueing delay (cycles, arrival to service start)", algoNames),
	}

	// Healthy-fabric calibration once per suite per message size; the
	// trees are planned from the same measured t_end at every rate.
	tends, err := calibrateSeries(cols, func(s *Suite) (map[int]model.Time, error) {
		return s.calibrate(&f3.Latency.Notes, "calibration on "+s.Platform.Name+": ", sc.Sizes...)
	})
	if err != nil {
		return nil, err
	}
	f3.Latency.Notes = append(f3.Latency.Notes,
		fmt.Sprintf("%d runs per point, %d requests per run (first %d warm-up), admission %s x%d, seed %d",
			trials, sc.Requests, sc.Warmup, traffic.AdmissionFIFO, sc.MaxInFlight, meshSuite.Seed))

	res, err := grid{len(rates), len(cols), trials, func(r, c, tr int) runner.Cell {
		return cols[c].suite.trafficCell(cols[c].algo, rates[r], tr, sc, tends[c])
	}}.run(meshSuite, f3.Latency.Title, f3.Latency, f3.Throughput, f3.Queue)
	if res == nil {
		return f3, err
	}

	fill(f3.Latency, rates, func(r, c int) Cell { return statCell(res.stats(r, c, "p99")) })
	fill(f3.Throughput, rates, func(r, c int) Cell {
		if c == len(cols) {
			// The offered rate is the workload's, common to every series.
			return statCell(fold(res.row(r), func(x *runner.Result) float64 { return x.Metric("offered") }))
		}
		if shed := int(res.sum(r, c, "shed")); shed > 0 {
			f3.Throughput.Notes = append(f3.Throughput.Notes,
				fmt.Sprintf("%s at %d req/Mcycle: %d measured requests shed across %d runs",
					cols[c].algo.Name, rates[r], shed, trials))
		}
		return statCell(res.stats(r, c, "delivered"))
	})
	fill(f3.Queue, rates, func(r, c int) Cell { return statCell(res.stats(r, c, "qdelay")) })

	// Saturation post-pass: where each series' latency curve leaves the
	// low-load regime. This is the figure's capacity claim in one line
	// per series.
	sheds := make([]int, len(rates))
	for ci, c := range cols {
		for r := range rates {
			sheds[r] = int(res.sum(r, ci, "shed"))
		}
		if sat, ok := SaturationRate(f3.Latency, ci, sheds, SaturationFactor); ok {
			f3.Latency.Notes = append(f3.Latency.Notes,
				fmt.Sprintf("saturation %s (%s): ~%g req/Mcycle (p99 >= %gx its low-load value)",
					c.algo.Name, c.suite.Platform.Name, sat, SaturationFactor))
		} else {
			f3.Latency.Notes = append(f3.Latency.Notes,
				fmt.Sprintf("saturation %s (%s): not reached at %d req/Mcycle",
					c.algo.Name, c.suite.Platform.Name, rates[len(rates)-1]))
		}
	}
	return f3, nil
}
