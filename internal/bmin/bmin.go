// Package bmin implements a bidirectional multistage interconnection
// network (BMIN) of 2×2 switches with turnaround routing — the fabric of
// the IBM SP series that the paper's second experiment set targets — plus
// the lexicographic chain order the U-min and OPT-min algorithms sort
// nodes by.
//
// Structure. For N = 2^n nodes the network has n switch stages of N/2
// bidirectional 2×2 switches, wired as a butterfly: the switch at stage s
// connects "level s" link positions p and p xor 2^s (below) to "level
// s+1" positions with the same two values (above). Every link position
// carries one up channel (toward higher stages) and one down channel
// (toward the processors).
//
// Turnaround routing. A message from src to dst ascends through stages
// 0..d, where d is the highest bit position in which src and dst differ
// (the turnaround stage), reverses direction inside the stage-d switch,
// and then descends fixing address bit s to dst's value at each stage s.
// While descending the path is unique; while ascending a switch may exit
// on either of its two up ports, which is where the BMIN's path
// multiplicity — and its lower contention, per the paper's §5 — comes
// from. The ascent policy is configurable:
//
//	AscentStraight  keep the source's own column (deterministic); each
//	                node's ascent path is private to it, so ascents never
//	                conflict with each other.
//	AscentDest      set bit s to dst's bit while ascending
//	                (deterministic); the descent column is then owned by
//	                the destination.
//	AscentAdaptive  offer the straight port first, the crossed port as an
//	                alternative; the simulator takes the first free one.
//
// Channel layout (IDs dense from 0): Up(l,p) = l*N + p for stage levels
// l in [0,n); Down(l,p) = n*N + l*N + p. A node p's injection channel is
// Up(0,p) and its ejection channel is Down(0,p), so the fabric is
// naturally one-port.
package bmin

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/wormhole"
)

// AscentPolicy selects how a header chooses among the two up ports of a
// switch while ascending toward its turnaround stage.
type AscentPolicy int

const (
	// AscentStraight always keeps the source's own column.
	AscentStraight AscentPolicy = iota
	// AscentDest sets each ascended bit to the destination's bit.
	AscentDest
	// AscentAdaptive offers straight first, then the crossed port.
	AscentAdaptive
	// AscentAdaptiveDest offers the destination-bit port first, then the
	// other.
	AscentAdaptiveDest
)

func (p AscentPolicy) String() string {
	switch p {
	case AscentStraight:
		return "straight"
	case AscentDest:
		return "dest"
	case AscentAdaptive:
		return "adaptive"
	case AscentAdaptiveDest:
		return "adaptive-dest"
	default:
		return fmt.Sprintf("AscentPolicy(%d)", int(p))
	}
}

// BMIN is a bidirectional MIN fabric.
type BMIN struct {
	n      int // nodes (power of two)
	stages int // log2(n)
	policy AscentPolicy
}

// New constructs a BMIN with the given number of nodes (a power of two,
// at least 2) and ascent policy. It panics on an invalid node count or
// int32 ChannelID overflow; TryNew returns the error instead.
func New(nodes int, policy AscentPolicy) *BMIN {
	b, err := TryNew(nodes, policy)
	if err != nil {
		panic(err)
	}
	return b
}

// TryNew is New returning an error instead of panicking. A BMIN has
// 2·log2(N)·N channels (an up and a down channel per link level per
// position), so the ChannelID space overflows well before the NodeID
// space does — at 2^26 nodes, not 2^31; the count is computed in int64
// and checked against math.MaxInt32 before construction.
func TryNew(nodes int, policy AscentPolicy) (*BMIN, error) {
	if nodes < 2 || nodes&(nodes-1) != 0 {
		return nil, fmt.Errorf("bmin: nodes %d must be a power of two >= 2", nodes)
	}
	stages := bits.TrailingZeros(uint(nodes))
	if chans64 := 2 * int64(stages) * int64(nodes); chans64 > math.MaxInt32 {
		return nil, fmt.Errorf("bmin: %d nodes give %d channels, overflowing the int32 ChannelID space (max %d)", nodes, chans64, math.MaxInt32)
	}
	return &BMIN{n: nodes, stages: stages, policy: policy}, nil
}

// Stages returns the number of switch stages (log2 of the node count).
func (b *BMIN) Stages() int { return b.stages }

// Policy returns the ascent policy.
func (b *BMIN) Policy() AscentPolicy { return b.policy }

// TurnStage returns the turnaround stage for a (src, dst) pair: the
// highest differing address bit, or -1 when src == dst (the message turns
// inside the stage-0 switch without changing column).
func (b *BMIN) TurnStage(src, dst int) int {
	x := src ^ dst
	if x == 0 {
		return -1
	}
	return bits.Len(uint(x)) - 1
}

// Distance returns the switch-to-switch channels of the route from src
// to dst, 2·TurnStage (0 when src == dst): the route holds them plus its
// injection and ejection channels.
func (b *BMIN) Distance(src, dst int) int { return 2 * max(b.TurnStage(src, dst), 0) }

// LexLess is the lexicographic order on node addresses used by U-min and
// OPT-min: plain numeric comparison of the binary addresses.
func (b *BMIN) LexLess(a, c int) bool { return a < c }

// up and down compute channel IDs for level l, position p.
func (b *BMIN) up(l, p int) wormhole.ChannelID {
	return wormhole.ChannelID(l*b.n + p)
}

func (b *BMIN) down(l, p int) wormhole.ChannelID {
	return wormhole.ChannelID(b.stages*b.n + l*b.n + p)
}

// decode returns (isUp, level, position) for a channel.
func (b *BMIN) decode(c wormhole.ChannelID) (up bool, l, p int) {
	ci := int(c)
	if ci < b.stages*b.n {
		return true, ci / b.n, ci % b.n
	}
	ci -= b.stages * b.n
	return false, ci / b.n, ci % b.n
}

// NumNodes implements wormhole.Topology.
func (b *BMIN) NumNodes() int { return b.n }

// NumChannels implements wormhole.Topology.
func (b *BMIN) NumChannels() int { return 2 * b.stages * b.n }

// InjectChannel implements wormhole.Topology: node p injects on Up(0,p).
func (b *BMIN) InjectChannel(p wormhole.NodeID) wormhole.ChannelID {
	return b.up(0, int(p))
}

// EjectChannel implements wormhole.Topology: node p receives on Down(0,p).
func (b *BMIN) EjectChannel(p wormhole.NodeID) wormhole.ChannelID {
	return b.down(0, int(p))
}

func setBit(v, bit, to int) int {
	if to != 0 {
		return v | (1 << bit)
	}
	return v &^ (1 << bit)
}

// Route implements wormhole.Topology turnaround routing.
func (b *BMIN) Route(cur wormhole.ChannelID, src, dst wormhole.NodeID, buf []wormhole.ChannelID) []wormhole.ChannelID {
	d := b.TurnStage(int(src), int(dst))
	up, l, p := b.decode(cur)
	if up {
		// Header is at the stage-l switch, having ascended.
		if l >= d {
			// Turn around: exit downward with bit l fixed to dst's.
			q := setBit(p, l, (int(dst)>>l)&1)
			return append(buf, b.down(l, q))
		}
		// Ascend one more stage; the switch's two up ports lead to
		// columns p and p^2^l.
		straight := b.up(l+1, p)
		crossed := b.up(l+1, p^(1<<l))
		destFirst := b.up(l+1, setBit(p, l, (int(dst)>>l)&1))
		destSecond := b.up(l+1, setBit(p, l, 1-(int(dst)>>l)&1))
		switch b.policy {
		case AscentStraight:
			return append(buf, straight)
		case AscentDest:
			return append(buf, destFirst)
		case AscentAdaptive:
			return append(buf, straight, crossed)
		case AscentAdaptiveDest:
			return append(buf, destFirst, destSecond)
		default:
			panic(fmt.Sprintf("bmin: unknown ascent policy %d", b.policy))
		}
	}
	// Descending: header is at the stage l-1 switch (l >= 1; l == 0 is the
	// ejection channel and is never routed from). Fix bit l-1 to dst's.
	if l == 0 {
		panic("bmin: routing from an ejection channel")
	}
	q := setBit(p, l-1, (int(dst)>>(l-1))&1)
	return append(buf, b.down(l-1, q))
}

// AppendRoute implements wormhole.RoutePlanner for the deterministic
// ascents: it appends the channels Route leads a worm from src to dst
// through after its injection channel, ending with dst's ejection
// channel. The ascent keeps src's column (AscentStraight) or takes dst's
// bit at each stage (AscentDest) up to the turnaround stage, and the
// descent fixes one bit of dst's address per stage. The adaptive
// policies offer two up ports, so their route is not fixed at the
// source and they append nothing.
func (b *BMIN) AppendRoute(src, dst wormhole.NodeID, buf []wormhole.ChannelID) []wormhole.ChannelID {
	if b.policy != AscentStraight && b.policy != AscentDest {
		return buf
	}
	turn := max(b.TurnStage(int(src), int(dst)), 0)
	p, d := int(src), int(dst)
	for l := 0; l < turn; l++ {
		if b.policy == AscentDest {
			p = setBit(p, l, (d>>l)&1)
		}
		buf = append(buf, b.up(l+1, p))
	}
	for l := turn; l >= 0; l-- {
		p = setBit(p, l, (d>>l)&1)
		buf = append(buf, b.down(l, p))
	}
	return buf
}

// RouteDegraded implements wormhole.FaultRouter via alternate ascent.
// Turnaround routing is flexible exactly while ascending: a message may
// turn at ANY stage at or above its turnaround stage (address bits above
// the turn already agree, and the descent fixes everything below), and
// each ascent step may take either up port. So:
//
//   - ascending below the turn stage: the policy's candidates filtered of
//     dead channels; only when every policy port is dead is the switch's
//     other up port offered (an ascent column the policy would not pick,
//     but equally valid).
//   - at or above the turn stage: the turning down port, or unreachable.
//     Ascending further cannot help: the descent re-fixes every address
//     bit at or above the dead channel's stage to dst's value, and the
//     bits below it were committed by the ascent, so every higher turn
//     descends through exactly the same dead channel.
//   - descending: the path is unique (each stage fixes one address bit),
//     so a dead down channel means dst is unreachable — turnaround
//     routing cannot reverse a second time.
//
// When no candidate is dead the result equals Route's exactly, so a
// faulted fabric whose failures miss the path behaves identically to a
// healthy one.
func (b *BMIN) RouteDegraded(cur wormhole.ChannelID, src, dst wormhole.NodeID, dead func(wormhole.ChannelID) bool, buf []wormhole.ChannelID) []wormhole.ChannelID {
	d := b.TurnStage(int(src), int(dst))
	up, l, p := b.decode(cur)
	if up {
		if l >= d {
			q := setBit(p, l, (int(dst)>>l)&1)
			if c := b.down(l, q); !dead(c) {
				return append(buf, c)
			}
			return buf
		}
		straight := b.up(l+1, p)
		crossed := b.up(l+1, p^(1<<l))
		destFirst := b.up(l+1, setBit(p, l, (int(dst)>>l)&1))
		destSecond := b.up(l+1, setBit(p, l, 1-(int(dst)>>l)&1))
		var policy []wormhole.ChannelID
		switch b.policy {
		case AscentStraight:
			policy = []wormhole.ChannelID{straight}
		case AscentDest:
			policy = []wormhole.ChannelID{destFirst}
		case AscentAdaptive:
			policy = []wormhole.ChannelID{straight, crossed}
		case AscentAdaptiveDest:
			policy = []wormhole.ChannelID{destFirst, destSecond}
		default:
			panic(fmt.Sprintf("bmin: unknown ascent policy %d", b.policy))
		}
		n0 := len(buf)
		for _, c := range policy {
			if !dead(c) {
				buf = append(buf, c)
			}
		}
		if len(buf) == n0 {
			// Every policy port is dead; the switch's other up port (the
			// complement of {straight, crossed}) is the last resort.
			for _, c := range [2]wormhole.ChannelID{straight, crossed} {
				if !dead(c) && (len(policy) == 1 && c != policy[0]) {
					buf = append(buf, c)
				}
			}
		}
		return buf
	}
	if l == 0 {
		panic("bmin: routing from an ejection channel")
	}
	q := setBit(p, l-1, (int(dst)>>(l-1))&1)
	if c := b.down(l-1, q); !dead(c) {
		return append(buf, c)
	}
	return buf
}

// DescribeChannel implements wormhole.Topology.
func (b *BMIN) DescribeChannel(c wormhole.ChannelID) string {
	if c < 0 || int(c) >= b.NumChannels() {
		return "none"
	}
	up, l, p := b.decode(c)
	dir := "down"
	if up {
		dir = "up"
	}
	return fmt.Sprintf("%s(l=%d,p=%d)", dir, l, p)
}

var (
	_ wormhole.Topology     = (*BMIN)(nil)
	_ wormhole.FaultRouter  = (*BMIN)(nil)
	_ wormhole.RoutePlanner = (*BMIN)(nil)
)
