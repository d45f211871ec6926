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

// Mesh is an n-dimensional mesh fabric.
//
// Channel layout (IDs dense from 0):
//
//	[0, N)         injection channels, one per node
//	[N, 2N)        ejection channels, one per node
//	[2N, ...)      directed inter-router links: for node u, dimension d,
//	               direction s (0 = toward lower coordinate, 1 = higher),
//	               the link from u to its neighbour, where it exists.
type Mesh struct {
	dims   []int
	n      int
	stride []int // stride[d] = product of dims[0..d-1]
	// quot[d] divides an address by stride[d] without a division
	// instruction (quot[len(dims)] by the node count), so coordinate d
	// of u is u/stride[d] - (u/stride[d+1])*dims[d].
	quot []reciprocal

	link []wormhole.ChannelID // [u*2D + d*2 + s] -> channel or NoChannel
	// chanSrc/chanDst give the routers at the ends of link channel
	// c-2N (upstream, downstream).
	chanSrc  []wormhole.NodeID
	chanDst  []wormhole.NodeID
	numChans int
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
// math.MaxInt32 *before* any allocation is sized from them, so a fabric
// request that would silently wrap the int32 NodeID/ChannelID space (or
// attempt a wrapped-size allocation) fails fast with a descriptive
// error.
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
	links := int(chans64 - 2*n64)
	m := &Mesh{
		dims:    append([]int(nil), dims...),
		n:       n,
		stride:  stride,
		quot:    make([]reciprocal, len(dims)+1),
		link:    make([]wormhole.ChannelID, n*2*len(dims)),
		chanSrc: make([]wormhole.NodeID, 0, links),
		chanDst: make([]wormhole.NodeID, 0, links),
	}
	for d, s := range stride {
		m.quot[d] = newReciprocal(s)
	}
	m.quot[len(dims)] = newReciprocal(n)
	for i := range m.link {
		m.link[i] = wormhole.NoChannel
	}
	next := wormhole.ChannelID(2 * n) // after inject + eject blocks
	for u := 0; u < n; u++ {
		for d, side := range dims {
			c := m.coord(u, d)
			for s, v := range [2]int{u - stride[d], u + stride[d]} {
				if s == 0 && c == 0 || s == 1 && c == side-1 {
					continue // no neighbour beyond the mesh edge
				}
				m.link[m.linkIdx(u, d, s)] = next
				m.chanSrc = append(m.chanSrc, wormhole.NodeID(u))
				m.chanDst = append(m.chanDst, wormhole.NodeID(v))
				next++
			}
		}
	}
	m.numChans = int(next)
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

func (m *Mesh) linkIdx(u, d, s int) int { return u*2*len(m.dims) + d*2 + s }

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
func (r reciprocal) div(u int) int { return int((uint64(u) * r.mul) >> r.shift) }

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
func (m *Mesh) DimOrderLess(a, b int) bool {
	for d := 0; d < len(m.dims); d++ {
		ca, cb := m.coord(a, d), m.coord(b, d)
		if ca != cb {
			return ca < cb
		}
	}
	return false
}

// ChainKey returns an integer whose natural order equals <_d, convenient
// for sorting and for tests: the mixed-radix value with dimension 0 most
// significant.
func (m *Mesh) ChainKey(u int) int {
	k := 0
	for d := 0; d < len(m.dims); d++ {
		k = k*m.dims[d] + m.coord(u, d)
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
	return m.link[m.linkIdx(u, d, s)]
}

// routerAt returns the router where a header sitting at the downstream
// end of channel c is located.
func (m *Mesh) routerAt(c wormhole.ChannelID) wormhole.NodeID {
	ci := int(c)
	switch {
	case ci < m.n: // injection channel of node ci
		return wormhole.NodeID(ci)
	case ci < 2*m.n:
		panic("mesh: routing from an ejection channel")
	default:
		return m.chanDst[ci-2*m.n]
	}
}

// Route implements wormhole.Topology with deterministic dimension-ordered
// (e-cube) routing: correct the lowest differing dimension first. For a
// 2-D mesh this is exactly XY routing. A single candidate is returned —
// the routing is oblivious, one path per (src, dst) pair.
func (m *Mesh) Route(cur wormhole.ChannelID, src, dst wormhole.NodeID, buf []wormhole.ChannelID) []wormhole.ChannelID {
	here := m.routerAt(cur)
	if here == dst {
		return append(buf, m.EjectChannel(dst))
	}
	u, v := int(here), int(dst)
	for d := 0; d < len(m.dims); d++ {
		cu, cv := m.coord(u, d), m.coord(v, d)
		if cu == cv {
			continue
		}
		s := 0
		if cv > cu {
			s = 1
		}
		return append(buf, m.link[m.linkIdx(u, d, s)])
	}
	panic("mesh: unreachable — here != dst but all coordinates equal")
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
	here := m.routerAt(cur)
	if here == dst {
		if e := m.EjectChannel(dst); !dead(e) {
			return append(buf, e)
		}
		return buf
	}
	u, v := int(here), int(dst)
	for d := 0; d < len(m.dims); d++ {
		cu, cv := m.coord(u, d), m.coord(v, d)
		if cu == cv {
			continue
		}
		s := 0
		if cv > cu {
			s = 1
		}
		if c := m.link[m.linkIdx(u, d, s)]; !dead(c) {
			return append(buf, c)
		}
		// The e-cube candidate is dead: fall back to the remaining
		// differing dimensions' minimal links.
		for d2 := d + 1; d2 < len(m.dims); d2++ {
			cu2, cv2 := m.coord(u, d2), m.coord(v, d2)
			if cu2 == cv2 {
				continue
			}
			s2 := 0
			if cv2 > cu2 {
				s2 = 1
			}
			if c := m.link[m.linkIdx(u, d2, s2)]; !dead(c) {
				buf = append(buf, c)
			}
		}
		return buf
	}
	panic("mesh: unreachable — here != dst but all coordinates equal")
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
		i := ci - 2*m.n
		return fmt.Sprintf("link(%v->%v)", m.Coords(int(m.chanSrc[i])), m.Coords(int(m.chanDst[i])))
	}
}

var (
	_ wormhole.Topology    = (*Mesh)(nil)
	_ wormhole.FaultRouter = (*Mesh)(nil)
)
