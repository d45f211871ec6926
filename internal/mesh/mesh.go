// Package mesh implements n-dimensional mesh topologies with
// dimension-ordered (e-cube / XY) wormhole routing, and the
// dimension-ordered chain relation <_d that the U-mesh and OPT-mesh
// algorithms sort nodes by.
//
// Addressing is mixed-radix with dimension 0 varying fastest: in a 2-D
// W×H mesh, node (x, y) has address x + W*y. Routing resolves dimension 0
// first (the "X" of XY routing).
//
// The dimension order <_d compares coordinates with the FIRST-ROUTED
// dimension most significant (here dimension 0, so 2-D nodes sort by
// (x, y)). This pairing between routing order and chain order is what the
// contention-freedom of U-mesh and OPT-mesh rests on: with it, the only
// channel-sharing combination of concurrent chain-directed messages —
// a lower-segment message ascending the chain while an upper-segment
// message descends toward it — is exactly the combination the
// send-to-nearest-end recursion can never produce (ascending senders are
// always at or above the multicast source, descending senders at or below
// it). The paper writes <_d with δ_(n-1) most significant and resolves
// δ_(n-1) first in its e-cube routing; our implementation re-indexes the
// dimensions but preserves the pairing. The tests verify both the
// direction lemma and end-to-end zero-contention runs.
package mesh

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/wormhole"
)

// Mesh is an n-dimensional mesh fabric. It keeps no per-node or
// per-link state: every channel ID and every route is computed from
// coordinates.
//
// Channel layout (IDs dense from 0):
//
//	[0, N)         injection channels, one per node
//	[N, 2N)        ejection channels, one per node
//	[2N, ...)      directed inter-router links: for node u, dimension d,
//	               direction s (0 = toward lower coordinate, 1 = higher),
//	               the link from u to its neighbour, where it exists.
//
// Links are numbered in node order, then dimension, then direction,
// skipping the mesh edges: link (u, d, s) is 2N + start(u) + its rank
// among u's own links, where start(u) counts the links of the nodes
// before u. Only dimensions with a side above 1 have links; lv lists
// them, lowest first, as levels. With c_i node u's coordinate on level
// i, g_i ∈ {1, 2} its links along level i and low_i = u mod stride_i,
//
//	start(u) = Σ_i c_i·weight_i − stride_i·[c_i > 0] + g_i·low_i,
//
// where weight_i is 2·stride_i plus the links along lower levels in
// one slab of stride_i nodes (a slab fixes every coordinate from level
// i up). A router's line is the routers that differ from it on level 0
// only. Summed over the levels above 0, start gives the line's base
// (lineBase), and the router at x on a line whose routers each have ext
// links above level 0 starts at base + x·(2+ext) − [x > 0].
//
// The inverse (follow) descends from the highest level. In a block
// whose nodes each carry ext links along higher levels, slab x of level
// i starts at x·(weight_i + stride_i·ext) − stride_i·[x > 0], so link j
// of the block lies in slab (j + stride_i) / (weight_i + stride_i·ext):
// one reciprocal per level and ext. On level 0 a slab is one router,
// and the remainder is the link's rank among the router's links. A
// mesh of exactly two levels, a plane, takes the same steps written
// out (follow2, upper1), which BenchmarkMeshRoute's general leg
// measures against the loops.
type Mesh struct {
	dims   []int
	n      int
	stride []int // stride[d] = product of dims[0..d-1]
	// quot[d] divides an address by stride[d] without a division
	// instruction (quot[len(dims)] by the node count), so coordinate d
	// of u is u/stride[d] - (u/stride[d+1])*dims[d].
	quot []reciprocal

	lv   []level
	lvOf []int // lvOf[d] is dimension d's index in lv, or -1 for a side of 1
	// plane is set when there are exactly two levels, as in every 2-D
	// mesh the paper and the benchmarks route on: routing then takes
	// the flat steps follow2 and upper1 instead of the loops.
	plane bool
	// spans[lv[i].spans+ext] is the size of a slab of level i, plus
	// stride_i, in a block whose nodes carry ext links along higher
	// levels: weight_i + stride_i·ext, with its reciprocal.
	spans    []span
	numChans int
}

// level is a mesh dimension with a side above 1.
type level struct {
	stride int // stride of the dimension
	last   int // side - 1
	// weight is the links along lower levels in one slab of stride
	// nodes, plus 2·stride: what one coordinate step adds to start,
	// besides stride·ext.
	weight int
	side   reciprocal // divides by side
	top    bool       // the highest level, where an index left to split is the coordinate
	lines  int        // stride over level 0's side: lines per coordinate step
	spans  int        // index in Mesh.spans of this level's ext = 0 entry
}

// split returns the level's coordinate of an address (or line index) k
// whose lower levels have been divided out, and k's quotient by the
// side, with no multiply on the highest level.
func (l *level) split(k int) (c, q int) {
	if l.top {
		return k, 0
	}
	q = l.side.div(k)
	return k - q*(l.last+1), q
}

type span struct {
	size int
	div  reciprocal
}

// New constructs a mesh with the given side lengths (at least one
// dimension, each side >= 1). It panics on invalid dimensions or when
// the fabric would overflow the int32 NodeID/ChannelID address space;
// TryNew returns the error instead.
func New(dims ...int) *Mesh {
	m, err := TryNew(dims...)
	if err != nil {
		panic(err)
	}
	return m
}

// TryNew is New returning an error instead of panicking. Node and
// channel counts are computed in int64 and validated against
// math.MaxInt32, so a fabric request that would silently wrap the int32
// NodeID/ChannelID space fails fast with a descriptive error.
func TryNew(dims ...int) (*Mesh, error) {
	if len(dims) == 0 {
		return nil, errors.New("mesh: need at least one dimension")
	}
	n64 := int64(1)
	stride := make([]int, len(dims))
	for d, s := range dims {
		if s < 1 {
			return nil, fmt.Errorf("mesh: dimension %d has side %d < 1", d, s)
		}
		stride[d] = int(n64)
		if int64(s) > math.MaxInt32 || n64 > math.MaxInt32/int64(s) {
			return nil, fmt.Errorf("mesh: dimensions %v give more than %d nodes, overflowing the int32 NodeID space", dims, math.MaxInt32)
		}
		n64 *= int64(s)
	}
	// Channels: one inject + one eject per node, plus the directed
	// inter-router links — dimension d contributes 2·(n/s)·(s-1) of them.
	chans64 := 2 * n64
	for _, s := range dims {
		chans64 += 2 * (n64 / int64(s)) * int64(s-1)
	}
	if chans64 > math.MaxInt32 {
		return nil, fmt.Errorf("mesh: dimensions %v give %d channels, overflowing the int32 ChannelID space (max %d)", dims, chans64, math.MaxInt32)
	}
	n := int(n64)
	m := &Mesh{
		dims:     append([]int(nil), dims...),
		n:        n,
		stride:   stride,
		quot:     make([]reciprocal, len(dims)+1),
		lvOf:     make([]int, len(dims)),
		numChans: int(chans64),
	}
	for d, s := range stride {
		m.quot[d] = newReciprocal(s)
	}
	m.quot[len(dims)] = newReciprocal(n)
	for d, side := range dims {
		m.lvOf[d] = -1
		if side > 1 {
			m.lvOf[d] = len(m.lv)
			m.lv = append(m.lv, level{stride: stride[d], last: side - 1, side: newReciprocal(side)})
		}
	}
	m.plane = len(m.lv) == 2
	for i := range m.lv {
		l := &m.lv[i]
		l.top = i == len(m.lv)-1
		l.lines = l.stride / (m.lv[0].last + 1)
		l.weight = 2 * l.stride
		for _, e := range m.lv[:i] {
			l.weight += 2 * e.last * (l.stride / (e.last + 1))
		}
		// A node has one link along a level of side 2 and at most two
		// along any other, so ext stays within maxExt and every span is
		// a slab that exists: below the channel count, as the
		// reciprocals need.
		maxExt := 0
		for _, e := range m.lv[i+1:] {
			maxExt += min(e.last, 2)
		}
		l.spans = len(m.spans)
		for ext := 0; ext <= maxExt; ext++ {
			size := l.weight + l.stride*ext
			m.spans = append(m.spans, span{size: size, div: newReciprocal(size)})
		}
	}
	return m, nil
}

// New2D is shorthand for New(w, h), the paper's mesh configuration.
func New2D(w, h int) *Mesh { return New(w, h) }

// NewHypercube builds a dim-dimensional binary hypercube as a mesh with
// side length 2 in every dimension. Dimension-ordered routing on it is
// the classic deadlock-free e-cube routing, and the dimension-ordered
// chain makes the same recursion contention-free — the setting of
// McKinley et al.'s original U-cube algorithm, and a third fabric on
// which the paper's "any network partitionable into contention-free
// clusters" claim is exercised.
//
// Note the chain order: with dimension 0 most significant, <_d sorts
// hypercube nodes by the bit-reversal of their address. The tests verify
// contention-freedom does not care, as long as the pairing between chain
// significance and routing resolution order is preserved.
func NewHypercube(dim int) *Mesh {
	if dim < 1 {
		panic(fmt.Sprintf("mesh: NewHypercube dim=%d < 1", dim))
	}
	dims := make([]int, dim)
	for i := range dims {
		dims[i] = 2
	}
	return New(dims...)
}

// reciprocal divides any address by a fixed divisor with one multiply
// and one shift. For a divisor s with 2^(l-1) < s <= 2^l, mul is
// floor(2^(31+l)/s) + 1, which makes (u*mul) >> (31+l) exactly u/s for
// every u < 2^31 (Granlund and Montgomery, "Division by invariant
// integers using multiplication", 1994): writing mul*s = 2^(31+l) + e
// with 0 < e <= s, the product overshoots u/s by u*e/(s*2^(31+l)) <
// 2^-l <= 1/s, never reaching the next integer. mul <= 2^32, so the
// product stays below 2^63.
type reciprocal struct {
	mul   uint64
	shift uint
}

func newReciprocal(s int) reciprocal {
	l := uint(bits.Len64(uint64(s - 1))) // ceil(log2 s)
	shift := 31 + l
	return reciprocal{mul: (1<<shift)/uint64(s) + 1, shift: shift}
}

// div returns u / s for 0 <= u < 2^31.
func (r reciprocal) div(u int) int { return int((uint64(u) * r.mul) >> (r.shift & 63)) }

// coord returns coordinate d of node u.
func (m *Mesh) coord(u, d int) int { return m.quot[d].div(u) - m.quot[d+1].div(u)*m.dims[d] }

// Dims returns the side lengths.
func (m *Mesh) Dims() []int { return append([]int(nil), m.dims...) }

// Coords returns all coordinates of a node address.
func (m *Mesh) Coords(u int) []int {
	cs := make([]int, len(m.dims))
	for d := range m.dims {
		cs[d] = m.coord(u, d)
	}
	return cs
}

// Addr returns the address of the node at the given coordinates.
func (m *Mesh) Addr(coords ...int) int {
	if len(coords) != len(m.dims) {
		panic(fmt.Sprintf("mesh: Addr got %d coordinates for %d dimensions", len(coords), len(m.dims)))
	}
	a := 0
	for d, c := range coords {
		if c < 0 || c >= m.dims[d] {
			panic(fmt.Sprintf("mesh: coordinate %d out of range [0,%d) in dimension %d", c, m.dims[d], d))
		}
		a += c * m.stride[d]
	}
	return a
}

// Distance returns the Manhattan hop count between two nodes.
func (m *Mesh) Distance(a, b int) int {
	d := 0
	for dim := range m.dims {
		ca, cb := m.coord(a, dim), m.coord(b, dim)
		if ca > cb {
			d += ca - cb
		} else {
			d += cb - ca
		}
	}
	return d
}

// DimOrderLess is the strict part of the dimension order <_d used to sort
// multicast chains: coordinates compared lexicographically with the
// first-routed dimension (dimension 0) most significant. For a 2-D mesh
// nodes sort by (x, y). See the package comment for why the chain's most
// significant dimension must be the routing's first dimension.
func (m *Mesh) DimOrderLess(a, b int) bool { return m.ChainKey(a) < m.ChainKey(b) }

// ChainKey returns an integer whose natural order equals <_d, convenient
// for sorting and for tests: the mixed-radix value with dimension 0 most
// significant. A side-1 dimension adds nothing to it, so it takes one
// split per level.
func (m *Mesh) ChainKey(u int) int {
	k := 0
	for i := range m.lv {
		l := &m.lv[i]
		c, q := l.split(u)
		k = k*(l.last+1) + c
		u = q
	}
	return k
}

// NumNodes implements wormhole.Topology.
func (m *Mesh) NumNodes() int { return m.n }

// NumChannels implements wormhole.Topology.
func (m *Mesh) NumChannels() int { return m.numChans }

// InjectChannel implements wormhole.Topology.
func (m *Mesh) InjectChannel(u wormhole.NodeID) wormhole.ChannelID {
	return wormhole.ChannelID(u)
}

// EjectChannel implements wormhole.Topology.
func (m *Mesh) EjectChannel(u wormhole.NodeID) wormhole.ChannelID {
	return wormhole.ChannelID(int(u) + m.n)
}

// LinkChannel returns the directed link from u toward its neighbour in
// dimension d, direction s (0 down, 1 up), or NoChannel at the mesh edge.
func (m *Mesh) LinkChannel(u, d, s int) wormhole.ChannelID {
	li := m.lvOf[d]
	if li < 0 {
		return wormhole.NoChannel
	}
	r := m.routerOf(u)
	if li > 0 {
		return m.upper(r, li, s)
	}
	if s == 0 && r.x == 0 || s == 1 && r.x == m.lv[0].last {
		return wormhole.NoChannel
	}
	return m.along0(r, s)
}

// router is a router's place in the link numbering. x is its level-0
// coordinate and line the index of its line, the routers that differ
// from it on level 0 only (its address divided by the level-0 side).
// base counts the links before the line's first router, and ext is the
// links each of the line's routers has along higher levels, so the
// router's own links start at base + x·(2+ext) − [x > 0].
type router struct{ x, line, base, ext int }

// routerOf returns node u's router.
func (m *Mesh) routerOf(u int) router {
	x, q := m.lv[0].split(u)
	base, ext := m.lineBase(q)
	return router{x: x, line: q, base: base, ext: ext}
}

// lineBase returns the base and ext of line k: start summed over the
// levels above 0 at the line's first router.
func (m *Mesh) lineBase(k int) (base, ext int) {
	low := 0
	for i := 1; i < len(m.lv); i++ {
		l := &m.lv[i]
		c, q := l.split(k)
		k = q
		g := 2
		if c == 0 {
			g = 1
		} else {
			base -= l.stride
		}
		if c == l.last {
			g--
		}
		base += c*l.weight + g*low
		ext += g
		low += c * l.stride
	}
	return base, ext
}

// along0 returns router r's level-0 link in direction s, which must
// exist: down is its first link, and up follows it when there is one.
func (m *Mesh) along0(r router, s int) wormhole.ChannelID {
	id := 2*m.n + r.base + r.x*(2+r.ext)
	if r.x > 0 {
		id += s - 1
	}
	return wormhole.ChannelID(id)
}

// upper returns router r's link along level li ≥ 1 in direction s, or
// NoChannel at the mesh edge: its links along levels 0..li−1 come
// first.
func (m *Mesh) upper(r router, li, s int) wormhole.ChannelID {
	id := 2*m.n + r.base + r.x*(2+r.ext)
	if r.x < m.lv[0].last {
		id++ // with start's −[x > 0], r's level-0 links
	}
	k := r.line
	for i := 1; ; i++ {
		l := &m.lv[i]
		c, q := l.split(k)
		k = q
		if i == li {
			if s == 0 && c == 0 || s == 1 && c == l.last {
				return wormhole.NoChannel
			}
			if s == 1 && c > 0 {
				id++
			}
			return wormhole.ChannelID(id)
		}
		id += 2
		if c == 0 || c == l.last {
			id--
		}
	}
}

// upper1 is upper along level 1 of a plane, for a link that exists:
// the line index is the level-1 coordinate, so the link is 2N + start
// + [x < last] + s·[line > 0].
func (m *Mesh) upper1(r router, s int) wormhole.ChannelID {
	id := 2*m.n + r.base + r.x*(2+r.ext) + s
	if r.x < m.lv[0].last {
		id++
	}
	if s == 1 && r.line == 0 {
		id-- // no down link before it
	}
	return wormhole.ChannelID(id)
}

// follow returns the router at the downstream end of link j (counted
// from the first link, channel 2N), and the link's level and direction.
func (m *Mesh) follow(j int) (r router, li, s int) {
	top := j
	ext, k := 0, 0
	for i := len(m.lv) - 1; i > 0; i-- {
		l := &m.lv[i]
		sp := &m.spans[l.spans+ext]
		c := sp.div.div(j + l.stride)
		j += l.stride - c*sp.size
		ext += 2
		if c == 0 {
			j -= l.stride
			ext--
		}
		if c == l.last {
			ext--
		}
		k += c * l.lines
	}
	// Level 0: a slab is one router, and its links start at
	// x·(2+ext) − [x > 0]. What is left of j is the link's rank among
	// them, minus 1 when the first is the level-0 down link.
	sp := &m.spans[ext]
	x := sp.div.div(j + 1)
	r = router{x: x, line: k, base: top - j, ext: ext}
	j -= x * sp.size
	if j < 0 {
		r.x--
		return r, 0, 0
	}
	if x < m.lv[0].last {
		if j == 0 {
			r.x++
			return r, 0, 1
		}
		j--
	}
	// A link along a higher level: find it among the router's links
	// there, then the line the hop leads to.
	for li = 1; ; li++ {
		l := &m.lv[li]
		c, q := l.split(k)
		k = q
		if c > 0 {
			if j == 0 {
				break
			}
			j--
		}
		if c < l.last {
			if j == 0 {
				s = 1
				break
			}
			j--
		}
	}
	r.line += (2*s - 1) * m.lv[li].lines
	r.base, r.ext = m.lineBase(r.line)
	return r, li, s
}

// routerAt returns the router where a header sitting at the downstream
// end of channel c is located.
func (m *Mesh) routerAt(c wormhole.ChannelID) router {
	switch ci := int(c); {
	case ci < m.n: // injection channel of node ci
		return m.routerOf(ci)
	case ci < 2*m.n:
		panic("mesh: routing from an ejection channel")
	case m.plane:
		return m.follow2(ci - 2*m.n)
	default:
		r, _, _ := m.follow(ci - 2*m.n)
		return r
	}
}

// follow2 is follow's router on a mesh of two levels, written out: the
// line is the level-1 coordinate y, the one division above level 0 is
// by the top level's ext = 0 span, and a hop along level 1 moves to
// line y±1, whose base is y·weight − stride·[y > 0].
func (m *Mesh) follow2(j int) router {
	l0, l1 := &m.lv[0], &m.lv[1]
	sp := &m.spans[l1.spans]
	y := sp.div.div(j + l1.stride)
	t := j + l1.stride - y*sp.size
	ext := 2
	if y == 0 {
		t -= l1.stride
		ext--
	}
	if y == l1.last {
		ext--
	}
	r := router{line: y, base: j - t, ext: ext}
	sp = &m.spans[ext]
	r.x = sp.div.div(t + 1)
	t -= r.x * sp.size // the rank among the router's links, −1 for its level-0 down link
	switch {
	case t < 0:
		r.x--
	case r.x < l0.last && t == 0:
		r.x++
	default: // along level 1: down first, when there is a down link
		if r.x < l0.last {
			t--
		}
		if t == 0 && y > 0 {
			y--
		} else {
			y++
		}
		r.line = y
		r.base, r.ext = m.line1(y)
	}
	return r
}

// line1 is lineBase on a plane, where line y's base is y·weight −
// stride·[y > 0] and its routers each have a link along level 1 to
// every neighbouring line.
func (m *Mesh) line1(y int) (base, ext int) {
	l1 := &m.lv[1]
	base, ext = y*l1.weight, 2
	if y > 0 {
		base -= l1.stride
	} else {
		ext--
	}
	if y == l1.last {
		ext--
	}
	return base, ext
}

// addr returns the address of router r.
func (m *Mesh) addr(r router) int { return r.x + r.line*(m.lv[0].last+1) }

// Route implements wormhole.Topology with deterministic dimension-ordered
// (e-cube) routing: correct the lowest differing dimension first. For a
// 2-D mesh this is exactly XY routing. A single candidate is returned —
// the routing is oblivious, one path per (src, dst) pair.
func (m *Mesh) Route(cur wormhole.ChannelID, src, dst wormhole.NodeID, buf []wormhole.ChannelID) []wormhole.ChannelID {
	if len(m.lv) == 0 {
		return append(buf, m.EjectChannel(dst)) // a single node
	}
	r := m.routerAt(cur)
	x, q := m.lv[0].split(int(dst))
	if x != r.x {
		return append(buf, m.along0(r, dir(r.x, x)))
	}
	if q == r.line {
		return append(buf, m.EjectChannel(dst))
	}
	if m.plane {
		return append(buf, m.upper1(r, dir(r.line, q)))
	}
	for i, k := 1, r.line; ; i++ {
		l := &m.lv[i]
		hc, hq := l.split(k)
		dc, dq := l.split(q)
		if hc != dc {
			return append(buf, m.upper(r, i, dir(hc, dc)))
		}
		k, q = hq, dq
	}
}

// AppendRoute implements wormhole.RoutePlanner: it appends the channels
// Route leads a worm from src to dst through after its injection
// channel, ending with dst's ejection channel. It walks the router
// forward from src's, so no hop decodes a channel ID: along level 0
// first, then, on a plane, along level 1, and otherwise up the levels
// as Route's loop corrects them, lowest first.
func (m *Mesh) AppendRoute(src, dst wormhole.NodeID, buf []wormhole.ChannelID) []wormhole.ChannelID {
	if len(m.lv) == 0 {
		return append(buf, m.EjectChannel(dst)) // a single node
	}
	r := m.routerOf(int(src))
	x, q := m.lv[0].split(int(dst))
	for r.x != x {
		s := dir(r.x, x)
		buf = append(buf, m.along0(r, s))
		r.x += 2*s - 1
	}
	if m.plane {
		for r.line != q {
			s := dir(r.line, q)
			buf = append(buf, m.upper1(r, s))
			r.line += 2*s - 1
			r.base, r.ext = m.line1(r.line)
		}
		return append(buf, m.EjectChannel(dst))
	}
	for i, k := 1, r.line; k != q; i++ {
		l := &m.lv[i]
		hc, hq := l.split(k)
		dc, dq := l.split(q)
		for hc != dc {
			s := dir(hc, dc)
			buf = append(buf, m.upper(r, i, s))
			hc += 2*s - 1
			r.line += (2*s - 1) * l.lines
			r.base, r.ext = m.lineBase(r.line)
		}
		k, q = hq, dq
	}
	return append(buf, m.EjectChannel(dst))
}

// dir is the link direction from coordinate a toward b: 1 up, 0 down.
func dir(a, b int) int {
	if b > a {
		return 1
	}
	return 0
}

// RouteDegraded implements wormhole.FaultRouter with minimal-adaptive
// detours: the e-cube candidate keeps absolute preference — while it is
// live it is returned alone, so a fabric whose faults miss this path
// routes exactly as Route does — and only when it is dead are the other
// differing dimensions' minimal-direction links offered (in dimension
// order). Every fallback still moves strictly closer to dst, so detoured
// worms cannot livelock; the price of abandoning strict dimension order
// is that adaptive minimal routing can in principle deadlock under
// extreme contention, which the run watchdog (mcastsim) turns into a
// diagnosable error rather than a hang. An empty result means every
// minimal direction out of this router is dead: dst is unreachable.
func (m *Mesh) RouteDegraded(cur wormhole.ChannelID, src, dst wormhole.NodeID, dead func(wormhole.ChannelID) bool, buf []wormhole.ChannelID) []wormhole.ChannelID {
	eject := m.EjectChannel(dst)
	if len(m.lv) == 0 {
		if !dead(eject) {
			buf = append(buf, eject)
		}
		return buf // a single node
	}
	r := m.routerAt(cur)
	x, q := m.lv[0].split(int(dst))
	if x == r.x && q == r.line {
		if !dead(eject) {
			buf = append(buf, eject)
		}
		return buf
	}
	// fallback is set once the e-cube candidate has been found dead:
	// every other differing dimension's live link is then offered.
	fallback := false
	if x != r.x {
		if c := m.along0(r, dir(r.x, x)); !dead(c) {
			return append(buf, c)
		}
		fallback = true
	}
	if m.plane {
		// One level above 0: its link is the e-cube candidate or the
		// only fallback, and offered alone either way when live.
		if q != r.line {
			if c := m.upper1(r, dir(r.line, q)); !dead(c) {
				buf = append(buf, c)
			}
		}
		return buf
	}
	for i, k := 1, r.line; k != q; i++ {
		l := &m.lv[i]
		hc, hq := l.split(k)
		dc, dq := l.split(q)
		if hc != dc {
			if c := m.upper(r, i, dir(hc, dc)); !dead(c) {
				buf = append(buf, c)
				if !fallback {
					return buf
				}
			}
			fallback = true
		}
		k, q = hq, dq
	}
	return buf
}

// DescribeChannel implements wormhole.Topology.
func (m *Mesh) DescribeChannel(c wormhole.ChannelID) string {
	ci := int(c)
	switch {
	case ci < 0:
		return "none"
	case ci < m.n:
		return fmt.Sprintf("inject(%v)", m.Coords(ci))
	case ci < 2*m.n:
		return fmt.Sprintf("eject(%v)", m.Coords(ci-m.n))
	default:
		r, li, s := m.follow(ci - 2*m.n)
		v := m.addr(r)
		u := v - (2*s-1)*m.lv[li].stride
		return fmt.Sprintf("link(%v->%v)", m.Coords(u), m.Coords(v))
	}
}

var (
	_ wormhole.Topology     = (*Mesh)(nil)
	_ wormhole.FaultRouter  = (*Mesh)(nil)
	_ wormhole.RoutePlanner = (*Mesh)(nil)
)
