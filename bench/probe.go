package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/traffic"
	"repro/internal/wallclock"
)

type planFunc = func(k int, thold, tend model.Time) core.SplitTable

// probe is the harness's view into one set-up and the ops built from
// it. It always times set-up phases. A traced probe also wraps the
// callbacks the program makes into caller-supplied code — split-table
// builders, the chain order, the admission-time selector — to count and
// time them, and records spans when a span log is attached. An untraced
// probe hands every callback through unwrapped, so timed runs call the
// program exactly as a user would.
type probe struct {
	traced bool
	spans  *spanLog // nil: no spans kept

	phaseNS map[string]int64 // set-up time per phase, summed over set-ups
	calls   callCounts
	planNS  int64
	tunerNS int64

	op     int // op id for spans; -1 outside ops
	parent int // enclosing span id; 0 at top level
}

// within runs f inside a new span that encloses every span f records.
func (p *probe) within(name string, op int, f func()) {
	t0 := wallclock.Now()
	id := p.spans.begin(name, p.parent, op, t0)
	saved, savedOp := p.parent, p.op
	p.parent, p.op = id, op
	f()
	p.parent, p.op = saved, savedOp
	p.spans.end(id, wallclock.Since(t0))
}

// callCounts are the callback counters, snapshotted around each op.
type callCounts struct {
	plan, less, choose, observe int64
}

func newProbe(traced bool, spans *spanLog) *probe {
	return &probe{traced: traced, spans: spans, phaseNS: map[string]int64{}, op: -1}
}

// phase times one named set-up step.
func (p *probe) phase(name string, f func() error) error {
	t0 := wallclock.Now()
	err := f()
	d := wallclock.Since(t0)
	p.phaseNS[name] += int64(d)
	p.spans.add("setup."+name, p.parent, p.op, t0, d)
	return err
}

// plan wraps a split-table builder.
func (p *probe) plan(f planFunc) planFunc {
	if !p.traced {
		return f
	}
	return func(k int, thold, tend model.Time) core.SplitTable {
		t0 := wallclock.Now()
		tab := f(k, thold, tend)
		d := wallclock.Since(t0)
		p.calls.plan++
		p.planNS += int64(d)
		p.spans.add("plan", p.parent, p.op, t0, d)
		return tab
	}
}

// less wraps a chain order. Comparisons are only counted: a span or two
// clock reads per comparison would cost more than the comparison.
func (p *probe) less(f func(a, b int) bool) func(a, b int) bool {
	if !p.traced {
		return f
	}
	return func(a, b int) bool {
		p.calls.less++
		return f(a, b)
	}
}

// selector wraps an admission-time algorithm policy.
func (p *probe) selector(s traffic.Selector) traffic.Selector {
	if !p.traced {
		return s
	}
	return tracedSelector{p, s}
}

type tracedSelector struct {
	p *probe
	s traffic.Selector
}

func (t tracedSelector) Choose(at int64, k, bytes int) traffic.Choice {
	t0 := wallclock.Now()
	c := t.s.Choose(at, k, bytes)
	t.done("choose", t0)
	t.p.calls.choose++
	return c
}

func (t tracedSelector) Observe(at int64, algo, k, bytes int, latency int64) {
	t0 := wallclock.Now()
	t.s.Observe(at, algo, k, bytes, latency)
	t.done("observe", t0)
	t.p.calls.observe++
}

func (t tracedSelector) done(name string, t0 time.Time) {
	d := wallclock.Since(t0)
	t.p.tunerNS += int64(d)
	t.p.spans.add("tuner."+name, t.p.parent, t.p.op, t0, d)
}

// span is one timed interval. Start and End are nanoseconds since the
// log was opened; Op is -1 for set-up spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: wallclock.Now()} }

// begin opens a span and returns its id (0 for a nil log), so spans
// nested inside it can name it as their parent before it ends.
func (l *spanLog) begin(name string, parent, op int, start time.Time) int {
	if l == nil {
		return 0
	}
	s := int64(start.Sub(l.t0))
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Op: op, Start: s, End: s})
	return len(l.spans)
}

// end closes span id after d.
func (l *spanLog) end(id int, d time.Duration) {
	if l != nil && id > 0 {
		l.spans[id-1].End += int64(d)
	}
}

// add records a span that has already ended.
func (l *spanLog) add(name string, parent, op int, start time.Time, d time.Duration) {
	l.end(l.begin(name, parent, op, start), d)
}

func (l *spanLog) write(path string) error {
	buf, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
