package bmin_test

import (
	"slices"
	"testing"
	"testing/quick"

	. "repro/internal/bmin"
	"repro/internal/wormhole"
)

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("nodes=%d accepted", n)
				}
			}()
			New(n, AscentStraight)
		}()
	}
	b := New(128, AscentStraight)
	if b.Stages() != 7 || b.NumNodes() != 128 {
		t.Fatalf("stages=%d nodes=%d", b.Stages(), b.NumNodes())
	}
	if b.NumChannels() != 2*7*128 {
		t.Fatalf("NumChannels = %d", b.NumChannels())
	}
}

func TestTurnStage(t *testing.T) {
	b := New(16, AscentStraight)
	cases := []struct{ s, d, want int }{
		{0, 1, 0}, {0, 2, 1}, {5, 4, 0}, {0, 15, 3}, {7, 8, 3}, {3, 3, -1}, {12, 13, 0},
	}
	for _, c := range cases {
		if got := b.TurnStage(c.s, c.d); got != c.want {
			t.Errorf("TurnStage(%d,%d) = %d, want %d", c.s, c.d, got, c.want)
		}
	}
}

func TestTurnStageSymmetric(t *testing.T) {
	b := New(64, AscentStraight)
	f := func(s, d uint8) bool {
		x, y := int(s)%64, int(d)%64
		return b.TurnStage(x, y) == b.TurnStage(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDistanceMatchesPath: Distance counts the channels of every route
// besides its injection and ejection ones, under every ascent policy.
func TestDistanceMatchesPath(t *testing.T) {
	for _, policy := range []AscentPolicy{AscentStraight, AscentDest, AscentAdaptive, AscentAdaptiveDest} {
		b := New(16, policy)
		for s := 0; s < 16; s++ {
			for d := 0; d < 16; d++ {
				if got, want := b.Distance(s, d)+2, len(wormhole.PathChannels(b, wormhole.NodeID(s), wormhole.NodeID(d))); got != want {
					t.Fatalf("policy=%v: Distance(%d, %d)+2 = %d, path holds %d channels", policy, s, d, got, want)
				}
			}
		}
	}
}

// TestAppendRouteMatchesPath: on BMINs of 2 to 256 nodes, for every
// (src, dst), the deterministic ascents plan exactly the route Route
// walks after the injection channel, and the adaptive ones, whose route
// can branch, plan nothing. The plan is appended after a sentinel,
// which must be kept.
func TestAppendRouteMatchesPath(t *testing.T) {
	var buf []wormhole.ChannelID
	for n := 2; n <= 256; n *= 2 {
		for _, policy := range []AscentPolicy{AscentStraight, AscentDest, AscentAdaptive, AscentAdaptiveDest} {
			b := New(n, policy)
			for s := wormhole.NodeID(0); int(s) < n; s++ {
				for d := wormhole.NodeID(0); int(d) < n; d++ {
					buf = b.AppendRoute(s, d, append(buf[:0], wormhole.NoChannel))
					var want []wormhole.ChannelID
					if policy == AscentStraight || policy == AscentDest {
						want = wormhole.PathChannels(b, s, d)[1:]
					}
					if buf[0] != wormhole.NoChannel || !slices.Equal(buf[1:], want) {
						t.Fatalf("N=%d policy=%v: AppendRoute(%d -> %d) = %v after the sentinel, want %v", n, policy, s, d, buf, want)
					}
				}
			}
		}
	}
}

// TestPathShape: a route ascends to the turnaround stage and descends,
// using exactly 2*(TurnStage+1) channels.
func TestPathShape(t *testing.T) {
	for _, policy := range []AscentPolicy{AscentStraight, AscentDest, AscentAdaptive, AscentAdaptiveDest} {
		b := New(32, policy)
		for s := 0; s < 32; s++ {
			for d := 0; d < 32; d++ {
				p := wormhole.PathChannels(b, wormhole.NodeID(s), wormhole.NodeID(d))
				ts := b.TurnStage(s, d)
				want := 2 * (ts + 1)
				if s == d {
					want = 2 // inject + eject through the stage-0 switch
				}
				if len(p) != want {
					t.Fatalf("policy=%v %d->%d: path length %d, want %d", policy, s, d, len(p), want)
				}
				if p[0] != b.InjectChannel(wormhole.NodeID(s)) {
					t.Fatalf("path does not start at inject")
				}
				if p[len(p)-1] != b.EjectChannel(wormhole.NodeID(d)) {
					t.Fatalf("path does not end at eject(%d)", d)
				}
			}
		}
	}
}

// TestAscentStraightPrivatePaths: under the straight policy every source
// ascends its own private column — up channels are never shared between
// distinct sources.
func TestAscentStraightPrivatePaths(t *testing.T) {
	b := New(64, AscentStraight)
	ownedBy := make(map[wormhole.ChannelID]int)
	for s := 0; s < 64; s++ {
		for d := 0; d < 64; d++ {
			if s == d {
				continue
			}
			p := wormhole.PathChannels(b, wormhole.NodeID(s), wormhole.NodeID(d))
			// Ascent = first half of the path.
			for _, c := range p[:len(p)/2] {
				if owner, ok := ownedBy[c]; ok && owner != s {
					t.Fatalf("up channel %s used by sources %d and %d", b.DescribeChannel(c), owner, s)
				}
				ownedBy[c] = s
			}
		}
	}
}

// TestAscentDestPrivateDescent: under the dest policy the descent happens
// entirely in the destination's own column — down channels are never
// shared between distinct destinations.
func TestAscentDestPrivateDescent(t *testing.T) {
	b := New(64, AscentDest)
	ownedBy := make(map[wormhole.ChannelID]int)
	for s := 0; s < 64; s++ {
		for d := 0; d < 64; d++ {
			if s == d {
				continue
			}
			p := wormhole.PathChannels(b, wormhole.NodeID(s), wormhole.NodeID(d))
			for _, c := range p[len(p)/2:] {
				if owner, ok := ownedBy[c]; ok && owner != d {
					t.Fatalf("down channel %s used for destinations %d and %d", b.DescribeChannel(c), owner, d)
				}
				ownedBy[c] = d
			}
		}
	}
}

// TestAdaptiveOffersTwoUpPorts: while ascending below the turn stage the
// adaptive policies return two candidates; descending always returns one.
func TestAdaptiveOffersTwoUpPorts(t *testing.T) {
	for _, policy := range []AscentPolicy{AscentAdaptive, AscentAdaptiveDest} {
		b := New(32, policy)
		var buf []wormhole.ChannelID
		src, dst := wormhole.NodeID(0), wormhole.NodeID(31) // turn at stage 4
		buf = b.Route(b.InjectChannel(src), src, dst, buf[:0])
		if len(buf) != 2 {
			t.Fatalf("policy=%v: ascent candidates = %d, want 2", policy, len(buf))
		}
		// Follow the first candidate up to the turn, then descend: the
		// descent steps must be single-candidate.
		p := wormhole.PathChannels(b, src, dst)
		buf = b.Route(p[len(p)-2], src, dst, buf[:0])
		if len(buf) != 1 {
			t.Fatalf("policy=%v: descent candidates = %d, want 1", policy, len(buf))
		}
	}
}

// TestRouteDescentSetsBits: the final channel is always the destination's
// ejection channel and each descent step fixes one address bit, verified
// against the decoded channel positions via DescribeChannel round trip.
func TestRouteSelf(t *testing.T) {
	b := New(16, AscentStraight)
	var buf []wormhole.ChannelID
	for u := 0; u < 16; u++ {
		n := wormhole.NodeID(u)
		buf = b.Route(b.InjectChannel(n), n, n, buf[:0])
		if len(buf) != 1 || buf[0] != b.EjectChannel(n) {
			t.Fatalf("self-route of %d = %v", u, buf)
		}
	}
}

// TestChannelIDsDistinct: inject/eject channels are distinct across nodes
// and from each other.
func TestChannelIDsDistinct(t *testing.T) {
	b := New(128, AscentStraight)
	seen := make(map[wormhole.ChannelID]bool)
	for u := 0; u < 128; u++ {
		for _, c := range []wormhole.ChannelID{b.InjectChannel(wormhole.NodeID(u)), b.EjectChannel(wormhole.NodeID(u))} {
			if c < 0 || int(c) >= b.NumChannels() || seen[c] {
				t.Fatalf("bad or duplicate channel %d", c)
			}
			seen[c] = true
		}
	}
}

// TestLexLess is the trivial lexicographic order.
func TestLexLess(t *testing.T) {
	b := New(8, AscentStraight)
	if !b.LexLess(2, 5) || b.LexLess(5, 2) || b.LexLess(3, 3) {
		t.Fatal("LexLess is not numeric order")
	}
}

// TestUnicastOnBMINFabric: end-to-end flit-level unicast on a BMIN
// completes, is distance-(stage-)sensitive only through the turn stage,
// and leaves the fabric quiesced.
func TestUnicastOnBMINFabric(t *testing.T) {
	for _, policy := range []AscentPolicy{AscentStraight, AscentDest, AscentAdaptive, AscentAdaptiveDest} {
		b := New(128, policy)
		n := wormhole.New(b, wormhole.DefaultConfig())
		w := n.Send(0, 127, 1024, nil, nil)
		if _, err := n.RunUntilIdle(1 << 20); err != nil {
			t.Fatalf("policy=%v: %v", policy, err)
		}
		if !w.Done() || w.BlockedCycles != 0 {
			t.Fatalf("policy=%v: done=%v blocked=%d", policy, w.Done(), w.BlockedCycles)
		}
		if err := n.Quiesced(); err != nil {
			t.Fatalf("policy=%v: %v", policy, err)
		}
	}
}

// TestSameTurnStageSameLatency: wormhole latency on the BMIN depends only
// on the turn stage, not on which nodes are involved.
func TestSameTurnStageSameLatency(t *testing.T) {
	b := New(64, AscentStraight)
	arrival := func(s, d int) int64 {
		n := wormhole.New(b, wormhole.DefaultConfig())
		w := n.Send(wormhole.NodeID(s), wormhole.NodeID(d), 512, nil, nil)
		if _, err := n.RunUntilIdle(1 << 20); err != nil {
			t.Fatal(err)
		}
		return w.ArrivedAt
	}
	// All pairs with turn stage 5.
	a := arrival(0, 32)
	for _, pair := range [][2]int{{1, 33}, {7, 60}, {31, 0 + 32}, {20, 52}} {
		if got := arrival(pair[0], pair[1]); got != a {
			t.Fatalf("pair %v: arrival %d != %d", pair, got, a)
		}
	}
}

func TestDescribeChannel(t *testing.T) {
	b := New(8, AscentStraight)
	if s := b.DescribeChannel(b.InjectChannel(3)); s == "" || s == "none" {
		t.Errorf("inject described as %q", s)
	}
	if s := b.DescribeChannel(wormhole.ChannelID(-1)); s != "none" {
		t.Errorf("invalid channel described as %q", s)
	}
	if s := b.DescribeChannel(wormhole.ChannelID(9999)); s != "none" {
		t.Errorf("out-of-range channel described as %q", s)
	}
}

func TestPolicyString(t *testing.T) {
	for _, p := range []AscentPolicy{AscentStraight, AscentDest, AscentAdaptive, AscentAdaptiveDest, AscentPolicy(99)} {
		if p.String() == "" {
			t.Errorf("empty string for %d", int(p))
		}
	}
}
