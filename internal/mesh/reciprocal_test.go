package mesh

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/wormhole"
)

// TestReciprocalMatchesDivision: a reciprocal divides exactly for every
// numerator below 2^31. Each divisor is checked at the edges of its
// quotient steps (around every multiple in a sample, and the topmost
// multiples below 2^31) plus random numerators; the divisors include
// every power of two and its neighbours, d = 2 and d = 2^31-1.
func TestReciprocalMatchesDivision(t *testing.T) {
	const top = math.MaxInt32 // largest numerator: 2^31 - 1
	rng := sim.NewRNG(31)
	divisors := []int{1, 2, 3, 5, 6, 7, 10, 15, 16 * 16, 1000, 1 << 20, 3 * 5 * 7, 1000003, 65537 * 3, top - 1, top}
	for b := 1; b < 31; b++ {
		divisors = append(divisors, 1<<b-1, 1<<b, 1<<b+1)
	}
	for i := 0; i < 200; i++ {
		divisors = append(divisors, 1+rng.Intn(top))
		divisors = append(divisors, 1+rng.Intn(1<<16))
	}
	for _, d := range divisors {
		r := newReciprocal(d)
		check := func(u int) {
			if u < 0 || u > top {
				return
			}
			q := r.div(u)
			if q != u/d || u-q*d != u%d {
				t.Fatalf("reciprocal of %d: %d / %d = %d, want %d", d, u, d, q, u/d)
			}
		}
		for _, u := range []int{0, 1, d - 1, d, d + 1, top - 1, top} {
			check(u)
		}
		last := top / d
		for _, q := range []int{last, last - 1, last - 2, 2, 3} {
			check(q*d - 1)
			check(q * d)
			check(q*d + 1)
		}
		for i := 0; i < 64; i++ {
			q := rng.Intn(last + 1)
			check(q*d - 1)
			check(q * d)
			check(q*d + d - 1)
			check(rng.Intn(top) + 1)
		}
	}
}

// TestMeshArithmeticMatchesDivision: on every node (and node pair) of a
// set of small meshes, coordinates, Route, RouteDegraded, DimOrderLess,
// ChainKey and Distance equal their definitions through / and %.
func TestMeshArithmeticMatchesDivision(t *testing.T) {
	for _, m := range []*Mesh{New(1, 1), New(1, 7), New(7, 1), New(16, 16), New(3, 5, 7), NewHypercube(10)} {
		dims := m.Dims()
		n := m.NumNodes()
		coords := make([][]int, n)
		for u := range coords {
			stride := 1
			coords[u] = make([]int, len(dims))
			for d, side := range dims {
				coords[u][d] = u / stride % side
				stride *= side
			}
			for d, c := range coords[u] {
				if got := m.coord(u, d); got != c {
					t.Fatalf("%v: coord(%d, %d) = %d, want %d", dims, u, d, got, c)
				}
			}
			key := 0
			for d, side := range dims {
				key = key*side + coords[u][d]
			}
			if got := m.ChainKey(u); got != key {
				t.Fatalf("%v: ChainKey(%d) = %d, want %d", dims, u, got, key)
			}
		}
		// A deterministic tenth of the channels is dead for RouteDegraded.
		dead := func(c wormhole.ChannelID) bool { return uint32(c)*2654435761%10 == 0 }
		var buf []wormhole.ChannelID
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				cu, cv := coords[u], coords[v]
				dist, less, decided := 0, false, false
				first := -1
				for d := range dims {
					dist += abs(cu[d] - cv[d])
					if cu[d] != cv[d] && !decided {
						less, decided, first = cu[d] < cv[d], true, d
					}
				}
				if got := m.Distance(u, v); got != dist {
					t.Fatalf("%v: Distance(%d, %d) = %d, want %d", dims, u, v, got, dist)
				}
				if got := m.DimOrderLess(u, v); got != less {
					t.Fatalf("%v: DimOrderLess(%d, %d) = %v, want %v", dims, u, v, got, less)
				}
				in := m.InjectChannel(wormhole.NodeID(u))
				src, dst := wormhole.NodeID(u), wormhole.NodeID(v)
				var route, degraded []wormhole.ChannelID
				if first < 0 {
					route = []wormhole.ChannelID{m.EjectChannel(dst)}
					if !dead(route[0]) {
						degraded = route
					}
				} else {
					route = []wormhole.ChannelID{m.LinkChannel(u, first, dir(cu[first], cv[first]))}
					if !dead(route[0]) {
						degraded = route
					} else {
						for d := first + 1; d < len(dims); d++ {
							if c := m.LinkChannel(u, d, dir(cu[d], cv[d])); cu[d] != cv[d] && !dead(c) {
								degraded = append(degraded, c)
							}
						}
					}
				}
				buf = m.Route(in, src, dst, buf[:0])
				if !sameChannels(buf, route) {
					t.Fatalf("%v: Route(%d -> %d) = %v, want %v", dims, u, v, buf, route)
				}
				buf = m.RouteDegraded(in, src, dst, dead, buf[:0])
				if !sameChannels(buf, degraded) {
					t.Fatalf("%v: RouteDegraded(%d -> %d) = %v, want %v", dims, u, v, buf, degraded)
				}
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func sameChannels(a, b []wormhole.ChannelID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
