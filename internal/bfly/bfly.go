// Package bfly implements a unidirectional butterfly multistage network,
// the fabric the paper's concluding remarks single out as one where the
// contention-free partitioning behind OPT-mesh and OPT-min is impossible
// (citing Ni, Gui and Moore): every message traverses all log2(N) stages
// front to back, the route is uniquely determined by destination-tag
// routing, and distinct multicast sub-trees cannot be confined to
// disjoint channel sets.
//
// The paper's proposed fallback is temporal tuning: senders that must
// share channels are ordered so they are unlikely to transmit at the same
// time. The experiment harness uses this topology to show that
// lexicographic chain ordering reduces — but, unlike on the mesh and the
// BMIN, cannot eliminate — contention here (experiment E1 in DESIGN.md).
//
// Channel layout: Link(l, p) = l*N + p for levels l in [0, stages]:
// level 0 is node p's injection channel into stage 0; level l in
// [1, stages-1] connects stage l-1 to stage l; level stages delivers from
// the last stage to node p (the ejection channel). Stage l fixes address
// bit l, so a worm from src occupies, at level l+1, the column whose low
// bits (0..l) are the destination's and whose high bits are the source's.
package bfly

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/wormhole"
)

// Butterfly is a unidirectional butterfly MIN of 2×2 switches.
type Butterfly struct {
	n      int
	stages int
}

// New constructs a butterfly with the given number of nodes (a power of
// two, at least 2). It panics on an invalid node count or int32
// ChannelID overflow; TryNew returns the error instead.
func New(nodes int) *Butterfly {
	b, err := TryNew(nodes)
	if err != nil {
		panic(err)
	}
	return b
}

// TryNew is New returning an error instead of panicking. A butterfly
// has (log2(N)+1)·N channels, which overflows the int32 ChannelID space
// at 2^27 nodes — long before the NodeID space does; the count is
// computed in int64 and checked against math.MaxInt32 before
// construction.
func TryNew(nodes int) (*Butterfly, error) {
	if nodes < 2 || nodes&(nodes-1) != 0 {
		return nil, fmt.Errorf("bfly: nodes %d must be a power of two >= 2", nodes)
	}
	stages := bits.TrailingZeros(uint(nodes))
	if chans64 := int64(stages+1) * int64(nodes); chans64 > math.MaxInt32 {
		return nil, fmt.Errorf("bfly: %d nodes give %d channels, overflowing the int32 ChannelID space (max %d)", nodes, chans64, math.MaxInt32)
	}
	return &Butterfly{n: nodes, stages: stages}, nil
}

// Stages returns the number of switch stages.
func (b *Butterfly) Stages() int { return b.stages }

// Distance returns the stage-to-stage channels of every route, stages−1:
// a route holds them plus its injection and ejection channels.
func (b *Butterfly) Distance(src, dst int) int { return b.stages - 1 }

// LexLess is the lexicographic (numeric) chain order used for temporal
// tuning.
func (b *Butterfly) LexLess(a, c int) bool { return a < c }

func (b *Butterfly) link(l, p int) wormhole.ChannelID {
	return wormhole.ChannelID(l*b.n + p)
}

// NumNodes implements wormhole.Topology.
func (b *Butterfly) NumNodes() int { return b.n }

// NumChannels implements wormhole.Topology.
func (b *Butterfly) NumChannels() int { return (b.stages + 1) * b.n }

// InjectChannel implements wormhole.Topology.
func (b *Butterfly) InjectChannel(p wormhole.NodeID) wormhole.ChannelID {
	return b.link(0, int(p))
}

// EjectChannel implements wormhole.Topology.
func (b *Butterfly) EjectChannel(p wormhole.NodeID) wormhole.ChannelID {
	return b.link(b.stages, int(p))
}

// Route implements destination-tag routing: the switch at stage l sets
// address bit l. The route is unique — the butterfly has exactly one path
// per (src, dst) pair, which is why no node ordering can make multicast
// sub-trees channel-disjoint.
func (b *Butterfly) Route(cur wormhole.ChannelID, src, dst wormhole.NodeID, buf []wormhole.ChannelID) []wormhole.ChannelID {
	l := int(cur) / b.n
	p := int(cur) % b.n
	if l >= b.stages {
		panic("bfly: routing from an ejection channel")
	}
	q := p &^ (1 << l)
	if int(dst)>>l&1 != 0 {
		q |= 1 << l
	}
	return append(buf, b.link(l+1, q))
}

// DescribeChannel implements wormhole.Topology.
func (b *Butterfly) DescribeChannel(c wormhole.ChannelID) string {
	if c < 0 || int(c) >= b.NumChannels() {
		return "none"
	}
	l := int(c) / b.n
	p := int(c) % b.n
	switch l {
	case 0:
		return fmt.Sprintf("inject(%d)", p)
	case b.stages:
		return fmt.Sprintf("eject(%d)", p)
	default:
		return fmt.Sprintf("level(%d,p=%d)", l, p)
	}
}

var _ wormhole.Topology = (*Butterfly)(nil)
