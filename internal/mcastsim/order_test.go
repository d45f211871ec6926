package mcastsim

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// wormLog is a wormhole Observer that records, per worm in ID order,
// its endpoints, size, the cycle it took its injection channel and the
// cycle it left the fabric: its arrival, or the release of its last
// channel when it was cancelled.
type wormLog struct {
	worms []*loggedWorm
}

type loggedWorm struct {
	src, dst       wormhole.NodeID
	bytes          int
	injected, gone int64
	arrived        bool
}

func (l *wormLog) at(w *wormhole.Worm) *loggedWorm {
	for int64(len(l.worms)) <= w.ID {
		l.worms = append(l.worms, nil)
	}
	if l.worms[w.ID] == nil {
		l.worms[w.ID] = &loggedWorm{src: w.Src, dst: w.Dst, bytes: w.Bytes, injected: -1}
	}
	return l.worms[w.ID]
}

func (l *wormLog) Acquire(now int64, w *wormhole.Worm, _ wormhole.ChannelID) {
	if r := l.at(w); r.injected < 0 {
		r.injected = now
	}
}

func (l *wormLog) Release(now int64, w *wormhole.Worm, _ wormhole.ChannelID) {
	if r := l.at(w); !r.arrived {
		r.gone = now
	}
}

func (l *wormLog) Blocked(int64, *wormhole.Worm, wormhole.ChannelID, *wormhole.Worm) {}

func (l *wormLog) Complete(now int64, w *wormhole.Worm) {
	r := l.at(w)
	r.arrived, r.gone = true, now
}

// String renders one line per worm: "id src>dst bytes injected gone",
// with gone suffixed "x" for a cancelled worm.
func (l *wormLog) String() string {
	var b strings.Builder
	for id, r := range l.worms {
		end := "x"
		if r.arrived {
			end = ""
		}
		fmt.Fprintf(&b, "%d %d>%d %d %d %d%s\n", id, r.src, r.dst, r.bytes, r.injected, r.gone, end)
	}
	return b.String()
}

// dueWatch is the engine as a Monitor that also notes the claimed
// number of every deadline it finds in the engine's FIFO after a step.
// A deadline joins the FIFO when its send injects, and a step follows
// before it can leave, so a deadline armed at inject that was never
// seen there took the direct path into the heap.
type dueWatch struct {
	*Engine
	queued map[uint64]bool
}

func (w dueWatch) Check() error {
	f := &w.dues
	for i := range f.n {
		w.queued[f.ring[(f.head+i)&(len(f.ring)-1)].num] = true
	}
	return w.Engine.Check()
}

// TestServedEventOrderPinned pins every worm of a small served Reliable
// run on one engine: its ID, endpoints, size and the cycles it entered
// and left the fabric. Worm IDs follow the order in which inject events
// fire, and the run is built so that the order of same-cycle events
// shows in them: pairs of requests start in the same cycle from
// different sources with equal software costs, so their sends inject in
// the same cycles. The requests carry two message sizes, and so two
// deadline offsets: a 256-B send's deadline, armed soon after a 1-KB
// one's, comes due before it and takes the direct path into the heap.
// A node outage window stalls a send past its deadline, which then
// fires, cancels the worm and retransmits.
func TestServedEventOrderPinned(t *testing.T) {
	p := newServePlatform(t)
	const bigBytes = 1024
	bigEnd, err := Unicast(wormhole.New(p.m, wormhole.DefaultConfig()), 0, 63, bigBytes, Config{Software: serveSoft})
	if err != nil {
		t.Fatal(err)
	}
	bigTab := core.NewOptTable(64, serveSoft.Hold.At(bigBytes), bigEnd)
	fp, err := fault.NewPlan(p.m, fault.Spec{NodeOutages: []fault.NodeOutage{{Node: 27, From: 600, To: 5_000}}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := wormhole.New(p.m, wormhole.DefaultConfig())
	net.SetFaults(fp)
	var log wormLog
	net.SetObserver(&log)
	var q sim.EventQueue
	e := NewEngine(net, &q, sim.NewRNG(5))

	reqs := []struct {
		at    int64
		seed  uint64
		k     int
		bytes int
	}{
		{0, 21, 12, bigBytes}, {0, 22, 12, bigBytes},
		{300, 23, 10, p.bytes}, {300, 24, 10, p.bytes},
		{700, 25, 12, bigBytes}, {900, 26, 10, p.bytes},
		{900, 27, 10, p.bytes}, {1_400, 28, 12, bigBytes},
	}
	var retransmits, delivered int64
	for _, r := range reqs {
		ch, root := p.group(r.seed, r.k)
		tab, cfg := p.tab, p.reliable()
		if r.bytes == bigBytes {
			tab, cfg.TEnd = bigTab, bigEnd
		}
		q.At(r.at, func() {
			e.Serve(r.at, tab, ch, root, r.bytes, cfg, func(_ int64, res ReliableResult) {
				retransmits += res.Overhead.Retransmits
				delivered += int64(res.Delivered)
			})
		})
	}
	watch := dueWatch{e, map[uint64]bool{}}
	if _, err := Drive(net, &q, 1<<30, watch); err != nil {
		t.Fatal(err)
	}

	direct := len(log.worms) - len(watch.queued)
	if direct == 0 || len(watch.queued) == 0 {
		t.Fatalf("%d deadlines queued in the FIFO and %d scheduled directly: the pin needs both", len(watch.queued), direct)
	}
	ties := 0
	for id := 1; id < len(log.worms); id++ {
		if log.worms[id].injected == log.worms[id-1].injected {
			ties++
		}
	}
	if ties == 0 || retransmits == 0 {
		t.Fatalf("%d worms injected in the same cycle as their predecessor and %d sends retransmitted: the pin needs both", ties, retransmits)
	}
	t.Logf("%d worms, %d same-cycle injects, %d retransmits; %d deadlines queued in the FIFO, %d direct",
		len(log.worms), ties, retransmits, len(watch.queued), direct)
	got := log.String()
	const wantWorms, wantDigest = 81, "3d1c7ce53df675d67c8bb9fc05c94cd8958d6db8cf169bd8b41f853b3fd8c5e6"
	digest := fmt.Sprintf("%x", sha256.Sum256([]byte(got)))
	if len(log.worms) != wantWorms || digest != wantDigest {
		t.Fatalf("%d worms (digest %s), want %d (%s); %d delivered, %d retransmits, %d same-cycle injects:\n%s",
			len(log.worms), digest, wantWorms, wantDigest, delivered, retransmits, ties, got)
	}
}

// TestTiedDeadlinesFireInIssueOrder: two live deadlines that come due
// in the same cycle fire in the order of their sends' issues, not of
// their injects. Two single-destination requests are served in cycle 0
// with the same TEnd, so their deadlines come due together: first 1 KB
// from node 0 to 9, then 256 B from 63 to 54, which injects first since
// its t_send is shorter. Both destinations are down until cycle 3,000,
// so both sends are still in flight at the deadline: each is cancelled
// and retransmitted after a backoff drawn from the engine's one jitter
// stream, in firing order, so the order shows in the retransmits'
// cycles.
func TestTiedDeadlinesFireInIssueOrder(t *testing.T) {
	p := newServePlatform(t)
	fp, err := fault.NewPlan(p.m, fault.Spec{NodeOutages: []fault.NodeOutage{{Node: 9, From: 0, To: 3_000}, {Node: 54, From: 0, To: 3_000}}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := wormhole.New(p.m, wormhole.DefaultConfig())
	net.SetFaults(fp)
	var log wormLog
	net.SetObserver(&log)
	var q sim.EventQueue
	e := NewEngine(net, &q, sim.NewRNG(5))
	cfg := p.reliable()
	for _, r := range []struct{ src, dst, bytes int }{{0, 9, 1024}, {63, 54, p.bytes}} {
		ch := chain.New([]int{r.src, r.dst}, p.m.DimOrderLess)
		root, _ := ch.Index(r.src)
		e.Serve(0, p.tab, ch, root, r.bytes, cfg, nil)
	}
	if _, err := Drive(net, &q, 1<<30, e); err != nil {
		t.Fatal(err)
	}
	// The 256-B send injects first (worm 0), and both first sends are
	// cancelled at their common deadline. The 1-KB send's deadline fires
	// first and draws the first backoff; the 256-B send's draws the
	// second, the shorter here.
	want := "0 63>54 256 239 1623x\n1 0>9 1024 355 1623x\n2 63>54 256 2031 3033\n3 0>9 1024 2211 3129\n"
	if got := log.String(); got != want {
		t.Fatalf("worms:\n%swant:\n%s", got, want)
	}
}
