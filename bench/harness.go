package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/wallclock"
)

// minOps is how many ops every run completes however short its budget.
// The exact counters and the expected digests cover ops 0..minOps-1, so
// they do not depend on how fast the host is.
const minOps = 2

// expectedJSON maps workload -> op seed -> digest of that op's outputs,
// recorded on the seed code for op seeds 1997 and 1998.
//
//go:embed expected.json
var expectedJSON []byte

// profileHz is the CPU sampling rate asked of the traced run. The
// kernel's timer tick can cap it (at 250 Hz under CONFIG_HZ=250), which
// is why the traced stretch gets the whole budget: ten seconds then
// give at least 2500 samples, so each layer share repeats to about
// +-0.02.
const profileHz = 500

// Samples taken inside a timed op carry this pprof label, so harness
// work between ops (input draws, verification) stays out of the shares.
const labelKey, labelOp = "bench", "op"

// A set-up faster than cheapSetup is repeated between ops for
// setupSlot each, so its samples spread over the whole run like the
// ops' do; a slower one (the 1M-node fabric) is timed three times up
// front.
const (
	cheapSetup = 10 * time.Millisecond
	setupSlot  = 2 * time.Millisecond
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports. Timings of ops
// are in units of the reference kernel timed beside them (see
// reference), which cancels the host's speed drift.
var endToEnd = []metricDef{
	{"op_ref_p50", "ref"},
	{"flit_hops_per_ref", "1/ref"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// countMetrics are the exact per-op simulated counters: means over ops
// 0..minOps-1, identical on every host for a given seed.
var countMetrics = []metricDef{
	{"wormhole.flit_hops_per_op", "count"},
	{"wormhole.cycles_per_op", "cycles"},
	{"wormhole.worms_per_op", "count"},
	{"wormhole.blocked_cycles_per_op", "cycles"},
	{"wormhole.inject_wait_cycles_per_op", "cycles"},
	{"delivery.retransmits_per_op", "count"},
	{"delivery.repair_sends_per_op", "count"},
	{"delivery.cancelled_per_op", "count"},
	{"delivery.abandoned_per_op", "count"},
	{"delivery.delivered_frac", "frac"},
	{"traffic.queue_delay_mean_cycles", "cycles"},
	{"traffic.occupancy_mean", "count"},
	{"traffic.shed_frac", "frac"},
	{"traffic.p99_cycles", "cycles"},
	{"tuner.switches_per_op", "count"},
	{"runner.cells_computed", "count"},
	{"runner.cells_cached", "count"},
}

// setupPhases are the named set-up steps; a workload skips those it
// does not need.
var setupPhases = []string{"fabric", "calib", "surface"}

// perLayer are the metrics a traced run reports.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_share", "frac"})
	}
	defs = append(defs, metricDef{"wormhole.ns_per_flit_hop", "ns"})
	defs = append(defs, countMetrics...)
	defs = append(defs,
		metricDef{"core.plan_calls_per_op", "count"},
		metricDef{"core.plan_share", "frac"},
		metricDef{"chain.less_calls_per_req", "count"},
		metricDef{"tuner.choose_calls_per_op", "count"},
		metricDef{"tuner.observe_calls_per_op", "count"},
		metricDef{"tuner.call_share", "frac"},
		metricDef{"runner.warm_over_cold", "frac"},
	)
	for _, ph := range setupPhases {
		defs = append(defs, metricDef{"setup." + ph + "_frac", "frac"})
	}
	return append(defs,
		metricDef{"runtime.allocs_per_op", "count"},
		metricDef{"runtime.bytes_per_op", "B"},
		metricDef{"runtime.gc_per_op", "count"},
		metricDef{"host.op_ms_p50", "ms"},
		metricDef{"host.op_ms_tail", "ms"},
		metricDef{"host.op_tail_pct", "%"},
		metricDef{"host.ref_ms_p50", "ms"},
		metricDef{"host.ops", "count"},
		metricDef{"trace.overhead_frac", "frac"},
		metricDef{"trace.samples", "count"},
	)
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opsRun is one measured stretch of ops.
type opsRun struct {
	ms        []float64 // host time of each successful op
	refMS     []float64 // mean of the reference runs just before and after it
	results   []opResult
	calls     []callCounts // callback counts of each successful op
	opIndex   []int        // op index (seed offset) of each successful op
	attempted int
	errs      []string
	mallocs   uint64 // MemStats deltas over the timed regions, when asked
	bytes     uint64
	gcs       uint32
}

// opRefs returns each successful op's host time in reference units.
func (r opsRun) opRefs() []float64 {
	out := make([]float64, len(r.ms))
	for k := range r.ms {
		out[k] = r.ms[k] / r.refMS[k]
	}
	return out
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loop is how a stretch of ops runs.
type loop struct {
	p   *probe
	ref *refKernel
	// withMem reads MemStats around each timed region: a stop-the-world
	// read each, so only in the traced mode's untraced part.
	withMem bool
	// between, when set, runs after each op and its reference run.
	between func() error
}

// run repeats op, closed loop with one client, until budget has passed
// and at least minOps ops ran. Op i uses seed+i. The reference kernel
// runs before the first op and after every op; each op's time is set
// against the mean of the reference times on either side of it.
func (l loop) run(op opFunc, seed uint64, budget time.Duration) (opsRun, error) {
	var r opsRun
	p, withMem := l.p, l.withMem
	start := wallclock.Now()
	ref := l.ref.ms()
	for i := 0; i < minOps || wallclock.Since(start) < budget; i++ {
		var d time.Duration
		timed := func(f func() error) error {
			var m0, m1 runtime.MemStats
			if withMem {
				runtime.ReadMemStats(&m0)
			}
			t0 := wallclock.Now()
			var err error
			if p.traced {
				pprof.Do(context.Background(), pprof.Labels(labelKey, labelOp), func(context.Context) {
					p.within("op", i, func() { err = f() })
				})
			} else {
				err = f()
			}
			d = wallclock.Since(t0)
			if withMem {
				runtime.ReadMemStats(&m1)
				r.mallocs += m1.Mallocs - m0.Mallocs
				r.bytes += m1.TotalAlloc - m0.TotalAlloc
				r.gcs += m1.NumGC - m0.NumGC
			}
			return err
		}
		before := p.calls
		res, err := op(seed+uint64(i), timed)
		after := p.calls
		prevRef := ref
		ref = l.ref.after(millis(d))
		r.attempted++
		if err != nil {
			r.errs = append(r.errs, fmt.Sprintf("op %d (seed %d): %v", i, seed+uint64(i), err))
		} else {
			r.ms = append(r.ms, millis(d))
			r.refMS = append(r.refMS, (prevRef+ref)/2)
			r.results = append(r.results, res)
			r.calls = append(r.calls, callCounts{
				plan: after.plan - before.plan, less: after.less - before.less,
				choose: after.choose - before.choose, observe: after.observe - before.observe,
			})
			r.opIndex = append(r.opIndex, i)
		}
		if l.between != nil {
			if err := l.between(); err != nil {
				return r, err
			}
		}
	}
	return r, nil
}

// setUps times w's set-up. The last set-up's op is the one measured.
type setUps struct {
	w    workload
	p    *probe
	secs []float64
	op   opFunc
}

// once runs and times one set-up, keeping its op.
func (s *setUps) once() error {
	s.op = nil
	var err error
	t0 := wallclock.Now()
	s.p.within("setup", -1, func() { s.op, err = s.w.setup(s.p) })
	d := wallclock.Since(t0)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", s.w.name, err)
	}
	s.secs = append(s.secs, d.Seconds())
	return nil
}

// upFront runs the set-up three times. A slow one (the 1M-node fabric)
// is collected before the next starts, so its garbage lands neither in
// the next timed set-up nor in the peak RSS; fast ones are left to the
// allocator, since forcing a collection before every sub-millisecond
// set-up makes their times bimodal.
func (s *setUps) upFront() error {
	runtime.GC()
	for rep := 0; rep < 3; rep++ {
		if rep > 0 && s.secs[rep-1] > cheapSetup.Seconds() {
			s.op = nil
			runtime.GC()
		}
		if err := s.once(); err != nil {
			return err
		}
	}
	runtime.GC()
	return nil
}

// between returns the hook that repeats a cheap set-up between ops for
// setupSlot (at least once), or nil for an expensive one. The extra
// instances are dropped; the measured op keeps its own.
func (s *setUps) between() func() error {
	if sim.Median(s.secs) >= cheapSetup.Seconds() {
		return nil
	}
	return func() error {
		keep := s.op
		defer func() { s.op = keep }()
		for t0 := wallclock.Now(); ; {
			if err := s.once(); err != nil {
				return err
			}
			if wallclock.Since(t0) >= setupSlot {
				return nil
			}
		}
	}
}

// digestCheck compares each op's digest with the recorded one for its
// seed, where one is recorded, and logs the first ops' digests.
func digestCheck(w workload, seed uint64, r opsRun, log io.Writer) error {
	var expected map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &expected); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	for k, res := range r.results {
		s := strconv.FormatUint(seed+uint64(r.opIndex[k]), 10)
		if r.opIndex[k] < minOps {
			fmt.Fprintf(log, "%s: op seed %s digest %s\n", w.name, s, res.digest)
		}
		if want, ok := expected[w.name][s]; ok && want != res.digest {
			return fmt.Errorf("op seed %s digest %s, expected %s", s, res.digest, want)
		}
	}
	return nil
}

// measure runs one workload and returns its result line. Untraced, it
// reports the end-to-end metrics. Traced, it first spends a quarter of
// the budget untraced (host timings, allocation counts), then the whole
// budget under the CPU profiler with counting callbacks, and reports the
// per-layer metrics; both stretches start at the same seed and must
// agree op for op.
func measure(w workload, seed uint64, budget time.Duration, traced bool, spans *spanLog, log io.Writer) (*report, error) {
	ref, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	s := &setUps{w: w, p: newProbe(false, nil)}
	if err := s.upFront(); err != nil {
		return nil, err
	}
	if traced {
		return measureTraced(s, ref, seed, budget, spans, log)
	}
	r, err := loop{p: s.p, ref: ref, between: s.between()}.run(s.op, seed, budget)
	if err != nil {
		return nil, err
	}
	rep := newReport(w, seed, log, r)
	opRefs := r.opRefs()
	hops := make([]float64, len(r.results))
	for k, res := range r.results {
		hops[k] = res.counts["wormhole.flit_hops_per_op"] / opRefs[k]
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.set(endToEnd, map[string]float64{
		"op_ref_p50":        sim.Median(opRefs),
		"flit_hops_per_ref": sim.Median(hops),
		"setup_s":           sim.Median(s.secs),
		"peak_rss_mb":       rss,
	})
	level, tailMS, _ := tail(r.ms)
	fmt.Fprintf(log, "%s: %d ops: op %.2f ms p50, %.2f ms p%g; reference %.3f ms p50; %d set-ups %.3g ms p50\n",
		w.name, len(r.ms), sim.Median(r.ms), tailMS, level*100, sim.Median(r.refMS), len(s.secs), sim.Median(s.secs)*1000)
	return rep, nil
}

// measureTraced is measure's traced mode, given the untraced set-ups.
func measureTraced(s *setUps, ref *refKernel, seed uint64, budget time.Duration, spans *spanLog, log io.Writer) (*report, error) {
	w, p := s.w, s.p
	plain, err := loop{p: p, ref: ref, withMem: true}.run(s.op, seed, budget/4)
	if err != nil {
		return nil, err
	}
	s.op = nil
	runtime.GC()

	tp := newProbe(true, spans)
	var top opFunc
	tp.within("setup", -1, func() { top, err = w.setup(tp) })
	if err != nil {
		return nil, fmt.Errorf("%s traced set-up: %w", w.name, err)
	}
	tp.planNS, tp.tunerNS = 0, 0
	runtime.SetCPUProfileRate(profileHz)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tr, err := loop{p: tp, ref: ref}.run(top, seed, budget)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}

	rep := newReport(w, seed, log, plain, tr)
	for k := 0; k < len(plain.results) && k < len(tr.results); k++ {
		if plain.opIndex[k] == tr.opIndex[k] && plain.results[k].digest != tr.results[k].digest {
			fmt.Fprintf(log, "%s: op %d differs between the untraced and traced runs\n", w.name, plain.opIndex[k])
			rep.Failed, rep.Correct = rep.Attempted, false
		}
	}

	vals := map[string]float64{}
	shares, nsamples := layerShares(samples, labelKey, labelOp)
	for _, l := range layers {
		vals[l+".self_share"] = shares[l]
	}
	vals["trace.samples"] = float64(nsamples)

	var tracedNS, tracedHops float64
	for k, res := range tr.results {
		tracedNS += tr.ms[k] * 1e6
		tracedHops += res.counts["wormhole.flit_hops_per_op"]
	}
	if tracedHops > 0 {
		vals["wormhole.ns_per_flit_hop"] = shares["wormhole"] * tracedNS / tracedHops
	}
	if tracedNS > 0 {
		vals["core.plan_share"] = float64(tp.planNS) / tracedNS
		vals["tuner.call_share"] = float64(tp.tunerNS) / tracedNS
	}

	// Exact counters: ops 0..minOps-1, which every run completes.
	var n, reqs float64
	var calls callCounts
	for k, res := range plain.results {
		if plain.opIndex[k] >= minOps {
			break
		}
		n++
		for _, d := range countMetrics {
			vals[d.name] += res.counts[d.name]
		}
	}
	for k, res := range tr.results {
		if tr.opIndex[k] >= minOps {
			break
		}
		c := tr.calls[k]
		calls.plan, calls.less, calls.choose, calls.observe = calls.plan+c.plan, calls.less+c.less, calls.choose+c.choose, calls.observe+c.observe
		reqs += float64(res.requests)
	}
	if n > 0 {
		for _, d := range countMetrics {
			vals[d.name] /= n
		}
		vals["core.plan_calls_per_op"] = float64(calls.plan) / n
		vals["tuner.choose_calls_per_op"] = float64(calls.choose) / n
		vals["tuner.observe_calls_per_op"] = float64(calls.observe) / n
	}
	if reqs > 0 {
		vals["chain.less_calls_per_req"] = float64(calls.less) / reqs
	}

	var warm []float64
	for k, res := range plain.results {
		if res.warmMS > 0 {
			warm = append(warm, res.warmMS/plain.ms[k])
		}
	}
	vals["runner.warm_over_cold"] = sim.Median(warm)

	var setupNS int64
	for _, ns := range p.phaseNS {
		setupNS += ns
	}
	for _, ph := range setupPhases {
		if setupNS > 0 {
			vals["setup."+ph+"_frac"] = float64(p.phaseNS[ph]) / float64(setupNS)
		}
	}

	if ok := float64(len(plain.results)); ok > 0 {
		vals["runtime.allocs_per_op"] = float64(plain.mallocs) / ok
		vals["runtime.bytes_per_op"] = float64(plain.bytes) / ok
		vals["runtime.gc_per_op"] = float64(plain.gcs) / ok
	}
	level, tailMS, _ := tail(plain.ms)
	vals["host.op_ms_p50"] = sim.Median(plain.ms)
	vals["host.op_ms_tail"] = tailMS
	vals["host.op_tail_pct"] = level * 100
	vals["host.ref_ms_p50"] = sim.Median(plain.refMS)
	vals["host.ops"] = float64(len(plain.ms))
	if p50 := sim.Median(plain.opRefs()); p50 > 0 {
		vals["trace.overhead_frac"] = sim.Median(tr.opRefs())/p50 - 1
	}
	rep.set(perLayer, vals)
	fmt.Fprintf(log, "%s: %d untraced + %d traced ops, %d profile samples\n", w.name, len(plain.ms), len(tr.ms), nsamples)
	return rep, nil
}

// newReport counts attempts and failures over the given stretches and
// checks digests; a digest mismatch fails every op of the workload.
func newReport(w workload, seed uint64, log io.Writer, runs ...opsRun) *report {
	rep := &report{Metrics: map[string]metric{}}
	for _, r := range runs {
		rep.Attempted += r.attempted
		rep.Failed += r.attempted - len(r.results)
		for _, e := range r.errs {
			fmt.Fprintf(log, "%s: FAILED %s\n", w.name, e)
		}
	}
	if err := digestCheck(w, seed, runs[0], log); err != nil {
		fmt.Fprintf(log, "%s: FAILED %v\n", w.name, err)
		rep.Failed = rep.Attempted
	}
	rep.Correct = rep.Failed == 0
	return rep
}

// set fills every metric in defs from vals (0 where vals has none). A
// value that is not finite is a harness bug and marks the run incorrect.
func (rep *report) set(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, rep.Correct = 0, false
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
}

// peakRSSMB returns this process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
