package recover

import (
	"reflect"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/mcastsim"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

var serveSoft = model.Software{
	Send: model.Linear{Fixed: 200, PerByte: 0.15},
	Recv: model.Linear{Fixed: 200, PerByte: 0.15},
	Hold: model.Linear{Fixed: 200, PerByte: 0.15},
}

// servePlatform is an 8x8 mesh with a calibrated OPT table for 256-byte
// messages and groups of up to its 64 nodes.
type servePlatform struct {
	m     *mesh.Mesh
	tab   core.SplitTable
	tEnd  int64
	bytes int
}

func newServePlatform(t *testing.T) servePlatform {
	t.Helper()
	const bytes = 256
	m := mesh.New2D(8, 8)
	tEnd, err := mcastsim.Unicast(wormhole.New(m, wormhole.DefaultConfig()), 0, 63, bytes, mcastsim.Config{Software: serveSoft})
	if err != nil {
		t.Fatal(err)
	}
	return servePlatform{m: m, tab: core.NewOptTable(64, serveSoft.Hold.At(bytes), tEnd), tEnd: tEnd, bytes: bytes}
}

// group draws k members and returns their dimension-ordered chain and
// the source's position in it.
func (p servePlatform) group(seed uint64, k int) (chain.Chain, int) {
	addrs := sim.NewRNG(seed).Sample(p.m.NumNodes(), k)
	ch := chain.New(addrs, p.m.DimOrderLess)
	root, _ := ch.Index(addrs[0])
	return ch, root
}

// reliable arms the recover defaults: a deadline of 3 t_end per send.
func (p servePlatform) reliable() Config {
	return Config{Sim: mcastsim.Config{Software: serveSoft}, TEnd: p.tEnd}
}

// TestServeAllocsFlatInK: on a warm engine and fabric, a served request
// makes the same number of allocations whatever its group size — the
// request's own records, none per send.
func TestServeAllocsFlatInK(t *testing.T) {
	p := newServePlatform(t)
	net := wormhole.New(p.m, wormhole.DefaultConfig())
	net.SetRecycling(true)
	var q sim.EventQueue
	e := NewEngine(net, &q, sim.NewRNG(3))
	cfg := p.reliable()
	served := 0
	done := func(int64, Result) { served++ }
	serve := func(seed uint64, k int) func() {
		ch, root := p.group(seed, k)
		return func() {
			e.Serve(net.Now(), p.tab, ch, root, p.bytes, cfg, done)
			if err := mcastsim.Drive(net, &q, net.Now()+1<<30, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	small, large := serve(1, 8), serve(2, 64)
	for i := 0; i < 20; i++ {
		small()
		large()
	}
	a8 := testing.AllocsPerRun(20, small)
	a64 := testing.AllocsPerRun(20, large)
	if a8 != a64 {
		t.Fatalf("a served request made %.0f allocs at k=8 but %.0f at k=64", a8, a64)
	}
	t.Logf("%.0f allocs per served request at k=8 and k=64", a8)
	if served != 2*20+2*21 {
		t.Fatalf("%d requests completed, want %d", served, 2*20+2*21)
	}
}

// servedRun is one served request's outcome.
type servedRun struct {
	done int64
	res  Result
}

// serveOverlapping serves a stream of overlapping Reliable requests on
// one engine and returns their outcomes plus the number of transfers
// the run issued and the number it allocated.
func serveOverlapping(t *testing.T, p servePlatform, keep bool) (out []servedRun, issued, allocated int) {
	t.Helper()
	net := wormhole.New(p.m, wormhole.DefaultConfig())
	var q sim.EventQueue
	e := NewEngine(net, &q, sim.NewRNG(11))
	e.keepXfers = keep
	cfg := p.reliable()
	ks := []int{8, 64, 32, 16}
	out = make([]servedRun, 24)
	for i := range out {
		ch, root := p.group(uint64(100+i), ks[i%len(ks)])
		at := int64(i) * p.tEnd
		q.At(at, func() {
			e.Serve(at, p.tab, ch, root, p.bytes, cfg, func(done int64, res Result) { out[i] = servedRun{done, res} })
		})
	}
	if err := mcastsim.Drive(net, &q, 1<<40, e); err != nil {
		t.Fatal(err)
	}
	for _, r := range out {
		issued += int(r.res.Overhead.Sends - r.res.Overhead.Retransmits)
	}
	return out, issued, len(e.free)
}

// TestRecycledTransferIgnoresStaleDeadline: a served request's transfer
// is recycled as soon as it is delivered, while the deadline event of
// its send is still queued. The deadline carries the seq of that send,
// and a transfer's seq never goes back, so the stale deadline fires on
// the transfer's next use and misses: the run equals one that never
// recycles.
func TestRecycledTransferIgnoresStaleDeadline(t *testing.T) {
	p := newServePlatform(t)
	got, issued, allocated := serveOverlapping(t, p, false)
	want, _, kept := serveOverlapping(t, p, true)
	if kept != 0 {
		t.Fatalf("the run that keeps its transfers recycled %d of them", kept)
	}
	if allocated == 0 || 2*allocated > issued {
		t.Fatalf("%d transfers served %d sends: too little reuse to exercise recycling", allocated, issued)
	}
	t.Logf("%d transfers served %d sends", allocated, issued)
	for i := range want {
		if want[i].res.Overhead.Retransmits != 0 {
			t.Fatalf("request %d retransmitted: the stream must deliver every send before its deadline", i)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("request %d differs with recycling:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
