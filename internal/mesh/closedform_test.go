package mesh

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/wormhole"
)

// tables is the table-built mesh the closed form replaced: the channel
// of every (node, dimension, direction) link and both routers of every
// link, filled by walking nodes, dimensions and directions in order and
// numbering the links that exist. Its answers are the reference for the
// closed form's.
type tables struct {
	m                *Mesh
	link             []wormhole.ChannelID // [u*2D + d*2 + s] -> channel or NoChannel
	chanSrc, chanDst []wormhole.NodeID    // routers of link c-2N
}

func newTables(m *Mesh) *tables {
	dims, n := m.Dims(), m.NumNodes()
	t := &tables{m: m, link: make([]wormhole.ChannelID, n*2*len(dims))}
	next := wormhole.ChannelID(2 * n)
	for u := 0; u < n; u++ {
		stride := 1
		for d, side := range dims {
			c := u / stride % side
			for s, v := range [2]int{u - stride, u + stride} {
				i := u*2*len(dims) + d*2 + s
				t.link[i] = wormhole.NoChannel
				if s == 0 && c == 0 || s == 1 && c == side-1 {
					continue
				}
				t.link[i] = next
				t.chanSrc = append(t.chanSrc, wormhole.NodeID(u))
				t.chanDst = append(t.chanDst, wormhole.NodeID(v))
				next++
			}
			stride *= side
		}
	}
	if int(next) != m.NumChannels() {
		panic(fmt.Sprintf("tables: %d channels, mesh reports %d", next, m.NumChannels()))
	}
	return t
}

func (t *tables) linkChannel(u, d, s int) wormhole.ChannelID {
	return t.link[u*2*len(t.m.dims)+d*2+s]
}

func (t *tables) routerAt(c wormhole.ChannelID) int {
	if int(c) < t.m.n {
		return int(c)
	}
	return int(t.chanDst[int(c)-2*t.m.n])
}

func (t *tables) route(cur wormhole.ChannelID, dst wormhole.NodeID, buf []wormhole.ChannelID) []wormhole.ChannelID {
	u, v := t.routerAt(cur), int(dst)
	for d := range t.m.dims {
		if cu, cv := t.m.coord(u, d), t.m.coord(v, d); cu != cv {
			return append(buf, t.linkChannel(u, d, dir(cu, cv)))
		}
	}
	return append(buf, t.m.EjectChannel(dst))
}

func (t *tables) routeDegraded(cur wormhole.ChannelID, dst wormhole.NodeID, dead func(wormhole.ChannelID) bool, buf []wormhole.ChannelID) []wormhole.ChannelID {
	u, v := t.routerAt(cur), int(dst)
	for d := range t.m.dims {
		cu, cv := t.m.coord(u, d), t.m.coord(v, d)
		if cu == cv {
			continue
		}
		if c := t.linkChannel(u, d, dir(cu, cv)); !dead(c) {
			return append(buf, c)
		}
		for d2 := d + 1; d2 < len(t.m.dims); d2++ {
			cu2, cv2 := t.m.coord(u, d2), t.m.coord(v, d2)
			if cu2 == cv2 {
				continue
			}
			if c := t.linkChannel(u, d2, dir(cu2, cv2)); !dead(c) {
				buf = append(buf, c)
			}
		}
		return buf
	}
	if e := t.m.EjectChannel(dst); !dead(e) {
		return append(buf, e)
	}
	return buf
}

func (t *tables) describe(c wormhole.ChannelID) string {
	if int(c) < 2*t.m.n {
		return t.m.DescribeChannel(c)
	}
	i := int(c) - 2*t.m.n
	return fmt.Sprintf("link(%v->%v)", t.m.Coords(int(t.chanSrc[i])), t.m.Coords(int(t.chanDst[i])))
}

// deadSets are the fault patterns RouteDegraded is compared under: none,
// a hashed tenth and half of all channels, and every channel.
var deadSets = []struct {
	name string
	dead func(wormhole.ChannelID) bool
}{
	{"none", func(wormhole.ChannelID) bool { return false }},
	{"tenth", func(c wormhole.ChannelID) bool { return uint32(c)*2654435761%10 == 0 }},
	{"half", func(c wormhole.ChannelID) bool { return uint32(c)*2246822519>>7%2 == 0 }},
	{"all", func(wormhole.ChannelID) bool { return true }},
}

// checker compares the closed form with the tables, one query at a
// time; its failures name the shape and whether the plane's flat steps
// were on.
type checker struct {
	tb       testing.TB
	m        *Mesh
	t        *tables
	got, ref []wormhole.ChannelID
}

func (k *checker) link(u, d, s int) {
	if got, want := k.m.LinkChannel(u, d, s), k.t.linkChannel(u, d, s); got != want {
		k.tb.Fatalf("%v (plane %v): LinkChannel(%d, %d, %d) = %d, tables %d", k.m.dims, k.m.plane, u, d, s, got, want)
	}
}

func (k *checker) channel(c wormhole.ChannelID) {
	if got, want := k.m.DescribeChannel(c), k.t.describe(c); got != want {
		k.tb.Fatalf("%v (plane %v): DescribeChannel(%d) = %q, tables %q", k.m.dims, k.m.plane, c, got, want)
	}
	if c < 0 || int(c) >= k.m.n && int(c) < 2*k.m.n || len(k.m.lv) == 0 {
		return // no channel, an ejection one, or a single node's
	}
	if got, want := k.m.addr(k.m.routerAt(c)), k.t.routerAt(c); got != want {
		k.tb.Fatalf("%v (plane %v): routerAt(%d) = %d, tables %d", k.m.dims, k.m.plane, c, got, want)
	}
}

func (k *checker) route(cur wormhole.ChannelID, dst wormhole.NodeID) {
	k.got = k.m.Route(cur, 0, dst, k.got[:0])
	k.ref = k.t.route(cur, dst, k.ref[:0])
	if !sameChannels(k.got, k.ref) {
		k.tb.Fatalf("%v (plane %v): Route(%d -> %d) = %v, tables %v", k.m.dims, k.m.plane, cur, dst, k.got, k.ref)
	}
	for _, ds := range deadSets {
		k.got = k.m.RouteDegraded(cur, 0, dst, ds.dead, k.got[:0])
		k.ref = k.t.routeDegraded(cur, dst, ds.dead, k.ref[:0])
		if !sameChannels(k.got, k.ref) {
			k.tb.Fatalf("%v (plane %v): RouteDegraded(%d -> %d, dead %s) = %v, tables %v", k.m.dims, k.m.plane, cur, dst, ds.name, k.got, k.ref)
		}
	}
}

// plan compares AppendRoute(src, dst) with the tables' route walk from
// src's injection channel: every channel after it, through dst's
// ejection channel. The plan is appended after a sentinel, which must
// be kept.
func (k *checker) plan(src, dst wormhole.NodeID) {
	k.got = k.m.AppendRoute(src, dst, append(k.got[:0], wormhole.NoChannel))
	k.ref = k.ref[:0]
	for c, eject := k.m.InjectChannel(src), k.m.EjectChannel(dst); c != eject; c = k.ref[len(k.ref)-1] {
		k.ref = k.t.route(c, dst, k.ref)
	}
	if k.got[0] != wormhole.NoChannel || !sameChannels(k.got[1:], k.ref) {
		k.tb.Fatalf("%v (plane %v): AppendRoute(%d -> %d) = %v after the sentinel, tables %v", k.m.dims, k.m.plane, src, dst, k.got, k.ref)
	}
}

// forms returns m and, when m is a plane, a copy that takes the
// general form's path, so both are compared with the tables.
func forms(m *Mesh) []*Mesh {
	if !m.plane {
		return []*Mesh{m}
	}
	g := *m
	g.plane = false
	return []*Mesh{m, &g}
}

// TestClosedFormMatchesTables: on every channel of a set of meshes —
// 1-D, 2-D and 3-D, side-1 dimensions, a 10-cube — the closed form
// gives the tables' channel ID for every link, and for every channel
// the tables' router, description, Route answer and RouteDegraded
// answers under each dead set. Destinations are every node on meshes
// up to 256 nodes and a seeded sample of 32 per channel above. Planes
// are checked on their flat path and on the general one.
func TestClosedFormMatchesTables(t *testing.T) {
	shapes := [][]int{{1}, {7}, {1, 1}, {1, 7}, {7, 1}, {2, 2}, {5, 3}, {16, 16}, {64, 64}, {3, 5, 7}, {4, 1, 3}, {2, 2, 2, 2, 2, 2, 2, 2, 2, 2}}
	rng := sim.NewRNG(27)
	for _, dims := range shapes {
		for _, m := range forms(New(dims...)) {
			matchTables(t, m, rng)
		}
	}
}

// matchTables compares every link and channel of m with the tables.
func matchTables(t *testing.T, m *Mesh, rng *sim.RNG) {
	k := &checker{tb: t, m: m, t: newTables(m)}
	n := m.NumNodes()
	for u := 0; u < n; u++ {
		for d := range m.dims {
			k.link(u, d, 0)
			k.link(u, d, 1)
		}
	}
	k.channel(wormhole.NoChannel)
	for c := 0; c < m.NumChannels(); c++ {
		k.channel(wormhole.ChannelID(c))
		if c >= n && c < 2*n {
			continue
		}
		if n <= 256 {
			for v := 0; v < n; v++ {
				k.route(wormhole.ChannelID(c), wormhole.NodeID(v))
			}
			continue
		}
		for i := 0; i < 32; i++ {
			k.route(wormhole.ChannelID(c), wormhole.NodeID(rng.Intn(n)))
		}
	}
}

// TestAppendRouteMatchesTables: for every (src, dst) pair of a set of
// small meshes (a single node, a line either way round, a plane, a plane
// with a side-1 dimension between its levels, a 3-D mesh and a 4-cube),
// AppendRoute equals the tables' route walk. Planes are checked on
// their flat path and on the general one.
func TestAppendRouteMatchesTables(t *testing.T) {
	for _, dims := range [][]int{{1, 1}, {1, 9}, {9, 1}, {4, 4}, {3, 1, 5}, {3, 5, 7}, {2, 2, 2, 2}} {
		for _, m := range forms(New(dims...)) {
			k := &checker{tb: t, m: m, t: newTables(m)}
			for u := 0; u < m.NumNodes(); u++ {
				for v := 0; v < m.NumNodes(); v++ {
					k.plan(wormhole.NodeID(u), wormhole.NodeID(v))
				}
			}
		}
	}
}

// TestClosedFormMatchesTables1M: on the 1024×1024 mesh, 1M random
// links, channels and route queries match the tables on the flat path,
// and 256k on the general one.
func TestClosedFormMatchesTables1M(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 50 MB tables of a 1024x1024 mesh")
	}
	m := New(1024, 1024)
	tb := newTables(m)
	n, links := m.NumNodes(), m.NumChannels()-2*m.NumNodes()
	rng := sim.NewRNG(1024)
	for f, m := range forms(m) {
		k := &checker{tb: t, m: m, t: tb}
		for i := 0; i < 1<<20>>(2*f); i++ {
			k.link(rng.Intn(n), rng.Intn(2), rng.Intn(2))
			c := wormhole.ChannelID(2*n + rng.Intn(links))
			if i%4 == 0 {
				c = wormhole.ChannelID(rng.Intn(n)) // an injection channel
			}
			k.channel(c)
			k.route(c, wormhole.NodeID(rng.Intn(n)))
		}
	}
}

// TestTryNewKeepsNoTables: a mesh's size does not grow with its node or
// channel count. The 1024×1024 mesh's link tables took 50,304,384 B.
func TestTryNewKeepsNoTables(t *testing.T) {
	if b := allocBytes(func() { _, _ = TryNew(1024, 1024) }); b > 4096 {
		t.Fatalf("TryNew(1024, 1024) allocated %d B, want at most 4096", b)
	}
}

// allocBytes returns the bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzMeshRoute compares the closed form with the tables on random
// shapes (1–4 dimensions of sides 1–9, or a hypercube of up to 2^10
// nodes), random links, channels, (cur, dst) queries and planned
// (src, dst) routes, and a random dead set.
func FuzzMeshRoute(f *testing.F) {
	f.Add([]byte{1, 9}, uint64(1), uint8(0))
	f.Add([]byte{2, 16, 16}, uint64(2), uint8(10))
	f.Add([]byte{3, 3, 1, 7}, uint64(3), uint8(50))
	f.Add([]byte{4, 2, 1, 3, 1}, uint64(4), uint8(30))
	f.Add([]byte{0x80 | 10}, uint64(5), uint8(20))
	f.Fuzz(func(t *testing.T, shape []byte, seed uint64, deadPct uint8) {
		if len(shape) == 0 {
			return
		}
		var dims []int
		if shape[0]&0x80 != 0 {
			dims = make([]int, 1+int(shape[0]&0x7f)%10)
			for i := range dims {
				dims[i] = 2
			}
		} else {
			dims = make([]int, 1+int(shape[0])%4)
			for i := range dims {
				dims[i] = 1
				if i+1 < len(shape) {
					dims[i] += int(shape[i+1]) % 9
				}
			}
		}
		m := New(dims...)
		tb := newTables(m)
		pct := uint32(deadPct % 101)
		dead := func(c wormhole.ChannelID) bool { return (uint32(c)^uint32(seed))*2654435761%100 < pct }
		for _, m := range forms(m) {
			fuzzQueries(t, &checker{tb: t, m: m, t: tb}, sim.NewRNG(seed), dead, pct)
		}
	})
}

// fuzzQueries compares 256 random links, channels, route queries and
// planned routes with the tables, RouteDegraded under dead.
func fuzzQueries(t *testing.T, k *checker, rng *sim.RNG, dead func(wormhole.ChannelID) bool, pct uint32) {
	m, n, dims := k.m, k.m.NumNodes(), k.m.dims
	for i := 0; i < 256; i++ {
		k.link(rng.Intn(n), rng.Intn(len(dims)), rng.Intn(2))
		c := wormhole.ChannelID(rng.Intn(m.NumChannels()))
		k.channel(c)
		if int(c) >= n && int(c) < 2*n {
			c -= wormhole.ChannelID(n) // route from the injection channel instead
		}
		dst := wormhole.NodeID(rng.Intn(n))
		k.route(c, dst)
		k.plan(wormhole.NodeID(rng.Intn(n)), dst)
		k.got = m.RouteDegraded(c, 0, dst, dead, k.got[:0])
		k.ref = k.t.routeDegraded(c, dst, dead, k.ref[:0])
		if !sameChannels(k.got, k.ref) {
			t.Fatalf("%v: RouteDegraded(%d -> %d, %d%% dead) = %v, tables %v", dims, c, dst, pct, k.got, k.ref)
		}
	}
}

// BenchmarkMeshRoute: one op is 4096 route steps of 64 XY walks taken
// in turn, each restarting at its injection channel when it reaches
// its ejection channel; ns/route is the time per Route call. closed is
// the mesh's Route, general the same Route with the plane's flat step
// turned off (what the flat step buys), and table the tables' lookup.
// plan emits the same 4096 channels of the same walks from routes that
// AppendRoute plans whole, one per walk and lap, as the fast kernel
// plans a worm's at Send; ns/channel is its time per channel emitted.
func BenchmarkMeshRoute(b *testing.B) {
	for _, dims := range [][]int{{16, 16}, {1024, 1024}} {
		m := New(dims...)
		name := fmt.Sprintf("%dx%d", dims[0], dims[1])
		b.Run(name+"/closed", func(b *testing.B) {
			benchRoute(b, m, m.Route)
		})
		b.Run(name+"/general", func(b *testing.B) {
			g := forms(m)[1]
			benchRoute(b, m, g.Route)
		})
		b.Run(name+"/table", func(b *testing.B) {
			t := newTables(m)
			benchRoute(b, m, func(cur wormhole.ChannelID, _, dst wormhole.NodeID, buf []wormhole.ChannelID) []wormhole.ChannelID {
				return t.route(cur, dst, buf)
			})
		})
		b.Run(name+"/plan", func(b *testing.B) {
			benchPlan(b, m)
		})
	}
}

// benchWalks draws benchRoute's and benchPlan's 64 walks.
func benchWalks(m *Mesh) (src, dst [64]wormhole.NodeID) {
	rng := sim.NewRNG(64)
	for i := range src {
		src[i] = wormhole.NodeID(rng.Intn(m.NumNodes()))
		dst[i] = wormhole.NodeID(rng.Intn(m.NumNodes()))
	}
	return src, dst
}

func benchRoute(b *testing.B, m *Mesh, route func(cur wormhole.ChannelID, src, dst wormhole.NodeID, buf []wormhole.ChannelID) []wormhole.ChannelID) {
	const walks, steps = 64, 4096
	src, dst := benchWalks(m)
	var cur [walks]wormhole.ChannelID
	for i := range src {
		cur[i] = m.InjectChannel(src[i])
	}
	buf := make([]wormhole.ChannelID, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for s := 0; s < steps; s++ {
			i := s % walks
			buf = route(cur[i], src[i], dst[i], buf[:0])
			if cur[i] = buf[0]; cur[i] == m.EjectChannel(dst[i]) {
				cur[i] = m.InjectChannel(src[i])
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/route")
}

// benchPlan is benchRoute for AppendRoute: walk i emits the channels of
// its planned route in order, planning the route afresh whenever it has
// emitted the last, so the walks emit what benchRoute's do.
func benchPlan(b *testing.B, m *Mesh) {
	const steps = 4096
	src, dst := benchWalks(m)
	var plans [len(src)][]wormhole.ChannelID
	var next [len(src)]int
	for i := range plans {
		plans[i] = make([]wormhole.ChannelID, 0, m.Distance(int(src[i]), int(dst[i]))+1)
	}
	var sum wormhole.ChannelID
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for s := 0; s < steps; s++ {
			i := s % len(src)
			if next[i] == len(plans[i]) {
				plans[i], next[i] = m.AppendRoute(src[i], dst[i], plans[i][:0]), 0
			}
			sum += plans[i][next[i]]
			next[i]++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/channel")
	planSink = sum
}

// planSink keeps benchPlan's reads of the channels it emits.
var planSink wormhole.ChannelID
