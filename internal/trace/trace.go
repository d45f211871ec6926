// Package trace provides fabric observers and renderers for analyzing
// simulated multicasts: per-channel utilization, per-message timelines,
// and an ASCII link-utilization heatmap for 2-D meshes. It is what
// cmd/netsim's -trace and -heatmap flags are built on, and what the
// tests use to localize contention when a supposedly contention-free
// run blocks.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mesh"
	"repro/internal/wormhole"
)

// ChannelUsage accumulates, per channel, how long it was owned and how
// often headers blocked on it.
type ChannelUsage struct {
	topo       wormhole.Topology
	acquiredAt []int64
	busy       []int64
	acquires   []int64
	blocked    []int64
}

// NewChannelUsage builds a usage observer for a fabric's topology.
func NewChannelUsage(topo wormhole.Topology) *ChannelUsage {
	n := topo.NumChannels()
	return &ChannelUsage{
		topo:       topo,
		acquiredAt: make([]int64, n),
		busy:       make([]int64, n),
		acquires:   make([]int64, n),
		blocked:    make([]int64, n),
	}
}

// Acquire implements wormhole.Observer.
func (u *ChannelUsage) Acquire(now int64, _ *wormhole.Worm, c wormhole.ChannelID) {
	u.acquiredAt[c] = now
	u.acquires[c]++
}

// Release implements wormhole.Observer.
func (u *ChannelUsage) Release(now int64, _ *wormhole.Worm, c wormhole.ChannelID) {
	u.busy[c] += now - u.acquiredAt[c]
}

// Blocked implements wormhole.Observer.
func (u *ChannelUsage) Blocked(_ int64, _ *wormhole.Worm, c wormhole.ChannelID, _ *wormhole.Worm) {
	u.blocked[c]++
}

// Complete implements wormhole.Observer.
func (u *ChannelUsage) Complete(int64, *wormhole.Worm) {}

// BusyCycles returns how long the channel was owned in total.
func (u *ChannelUsage) BusyCycles(c wormhole.ChannelID) int64 { return u.busy[c] }

// Acquires returns how many worms owned the channel.
func (u *ChannelUsage) Acquires(c wormhole.ChannelID) int64 { return u.acquires[c] }

// BlockedOn returns how many header-cycles were spent blocked wanting
// this channel.
func (u *ChannelUsage) BlockedOn(c wormhole.ChannelID) int64 { return u.blocked[c] }

// Hottest returns the n busiest channels in descending busy order.
func (u *ChannelUsage) Hottest(n int) []wormhole.ChannelID {
	ids := make([]wormhole.ChannelID, len(u.busy))
	for i := range ids {
		ids[i] = wormhole.ChannelID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		if u.busy[ids[a]] != u.busy[ids[b]] {
			return u.busy[ids[a]] > u.busy[ids[b]]
		}
		return ids[a] < ids[b]
	})
	if n > len(ids) {
		n = len(ids)
	}
	return ids[:n]
}

// Report renders the n hottest channels as text.
func (u *ChannelUsage) Report(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %9s %9s\n", "channel", "busy", "acquires", "blocked")
	for _, c := range u.Hottest(n) {
		if u.busy[c] == 0 {
			break
		}
		fmt.Fprintf(&b, "%-28s %10d %9d %9d\n", u.topo.DescribeChannel(c), u.busy[c], u.acquires[c], u.blocked[c])
	}
	return b.String()
}

// Span is one message's lifetime in the fabric.
type Span struct {
	ID            int64
	Src, Dst      wormhole.NodeID
	Bytes         int
	Start, End    int64
	BlockedCycles int64
}

// Timeline records a Span per completed message, in completion order.
type Timeline struct {
	started map[int64]int64
	Spans   []Span
}

// NewTimeline builds a message-timeline observer.
func NewTimeline() *Timeline {
	return &Timeline{started: make(map[int64]int64)}
}

// Acquire implements wormhole.Observer; the first acquisition marks the
// message's start.
func (t *Timeline) Acquire(now int64, w *wormhole.Worm, _ wormhole.ChannelID) {
	if _, ok := t.started[w.ID]; !ok {
		t.started[w.ID] = now
	}
}

// Release implements wormhole.Observer.
func (t *Timeline) Release(int64, *wormhole.Worm, wormhole.ChannelID) {}

// Blocked implements wormhole.Observer.
func (t *Timeline) Blocked(int64, *wormhole.Worm, wormhole.ChannelID, *wormhole.Worm) {}

// Complete implements wormhole.Observer.
func (t *Timeline) Complete(now int64, w *wormhole.Worm) {
	t.Spans = append(t.Spans, Span{
		ID:            w.ID,
		Src:           w.Src,
		Dst:           w.Dst,
		Bytes:         w.Bytes,
		Start:         t.started[w.ID],
		End:           now,
		BlockedCycles: w.BlockedCycles,
	})
	delete(t.started, w.ID)
}

// Gantt renders the spans as an ASCII Gantt chart with the given width.
func (t *Timeline) Gantt(width int) string {
	if len(t.Spans) == 0 {
		return "(no messages)\n"
	}
	if width < 10 {
		width = 10
	}
	minT, maxT := t.Spans[0].Start, t.Spans[0].End
	for _, s := range t.Spans {
		if s.Start < minT {
			minT = s.Start
		}
		if s.End > maxT {
			maxT = s.End
		}
	}
	span := maxT - minT
	if span <= 0 {
		span = 1
	}
	scale := func(x int64) int {
		p := int((x - minT) * int64(width) / span)
		if p >= width {
			p = width - 1
		}
		return p
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycles %d..%d, one column = %.1f cycles\n", minT, maxT, float64(span)/float64(width))
	ordered := append([]Span(nil), t.Spans...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })
	for _, s := range ordered {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		from, to := scale(s.Start), scale(s.End)
		for i := from; i <= to; i++ {
			row[i] = '='
		}
		mark := ' '
		if s.BlockedCycles > 0 {
			mark = '!'
		}
		fmt.Fprintf(&b, "%4d->%-4d |%s|%c\n", s.Src, s.Dst, row, mark)
	}
	return b.String()
}

// Multi fans fabric events out to several observers.
type Multi []wormhole.Observer

// Acquire implements wormhole.Observer.
func (m Multi) Acquire(now int64, w *wormhole.Worm, c wormhole.ChannelID) {
	for _, o := range m {
		o.Acquire(now, w, c)
	}
}

// Release implements wormhole.Observer.
func (m Multi) Release(now int64, w *wormhole.Worm, c wormhole.ChannelID) {
	for _, o := range m {
		o.Release(now, w, c)
	}
}

// Blocked implements wormhole.Observer.
func (m Multi) Blocked(now int64, w *wormhole.Worm, c wormhole.ChannelID, h *wormhole.Worm) {
	for _, o := range m {
		o.Blocked(now, w, c, h)
	}
}

// Complete implements wormhole.Observer.
func (m Multi) Complete(now int64, w *wormhole.Worm) {
	for _, o := range m {
		o.Complete(now, w)
	}
}

// MeshHeatmap renders per-router link utilization of a 2-D mesh as an
// ASCII grid: each router cell shows the decile (0-9) of its busiest
// outgoing link relative to the hottest link in the fabric, '.' for
// idle. Useful for seeing where a multicast concentrated traffic.
func MeshHeatmap(m *mesh.Mesh, u *ChannelUsage) string {
	dims := m.Dims()
	if len(dims) != 2 {
		return "(heatmap requires a 2-D mesh)\n"
	}
	w, h := dims[0], dims[1]
	var peak int64
	cell := make([]int64, m.NumNodes())
	for n := 0; n < m.NumNodes(); n++ {
		var hot int64
		for d := 0; d < 2; d++ {
			for s := 0; s < 2; s++ {
				c := m.LinkChannel(n, d, s)
				if c == wormhole.NoChannel {
					continue
				}
				if b := u.BusyCycles(c); b > hot {
					hot = b
				}
			}
		}
		cell[n] = hot
		if hot > peak {
			peak = hot
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "link utilization heatmap (peak = %d busy cycles):\n", peak)
	for y := h - 1; y >= 0; y-- {
		fmt.Fprintf(&b, "%3d ", y)
		for x := 0; x < w; x++ {
			v := cell[m.Addr(x, y)]
			if v == 0 || peak == 0 {
				b.WriteByte('.')
			} else {
				d := v * 9 / peak
				b.WriteByte(byte('0' + d))
			}
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

var (
	_ wormhole.Observer = (*ChannelUsage)(nil)
	_ wormhole.Observer = (*Timeline)(nil)
	_ wormhole.Observer = Multi(nil)
)
