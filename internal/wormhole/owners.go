package wormhole

import "math/bits"

// flatChannels is the largest fabric, in channels, whose owners are kept
// in a flat table. It is the crossover of a sweep that ran one 64-member
// 4-KB OPT multicast per op, with a fresh placement per op, on a reused
// mesh of each side, alternating a flat and a hashed network op by op
// (400 ops each, five runs; medians in ms per op, 2-vCPU Xeon VM): 64²
// (24,320 channels) 0.24–0.40 flat vs 0.26–0.42 hashed; 128² (97,792)
// 0.38–0.64 vs 0.42–0.68; 256² (392,192) 0.67–1.18 vs 0.70–1.16,
// level; 512² (1,570,816) 1.45–1.79 vs 1.23–1.37; 1024² (6,287,360)
// 3.56–4.32 vs 2.22–2.48. A flat table's misses grow with the fabric
// (on 1024², a route's Y leg moves 16 KB through it per hop), a hashed
// table's size with the channels in flight. Every 16×16 and BMIN-128
// fabric is flat; the 1024×1024 mesh and BMIN-65536 are hashed.
const flatChannels = 1 << 20

// minBuckets is the hashed form's first table size, made at the first
// claim.
const minBuckets = 16

// owners records which worm owns each channel: its slot in
// Network.slots. New picks one of two forms from the fabric's channel
// count, and both count the channels owned (n), so Quiesced is O(1) on a
// clean fabric.
//
//   - Flat (at most flatChannels channels): flat holds slot+1 per
//     channel, 0 when the channel is free.
//   - Hashed (larger fabrics; flat is nil): tab is an open-addressing
//     table keyed by channel, with Fibonacci hashing, so that a route's
//     arithmetic-progression IDs spread over the buckets, linear probing
//     and backward-shift deletion. It is at most a quarter full and
//     grows by doubling, so its size follows the channels owned at once,
//     not the fabric.
//
// claim and free dispatch on the form and do not inline: their call to
// the hashed form takes most of the compiler's inlining budget. The
// fast kernel's routing and release therefore dispatch themselves, so
// that claimFlat and freeFlat inline there and the hashed form is one
// outlined call. of inlines whole.
type owners struct {
	flat  []int32
	tab   []ownerEntry
	shift uint8 // 32 − log2(len(tab)): a hash's top bits pick the bucket
	n     int
}

// ownerEntry is one bucket of the hashed form: channel+1 (0 marks an
// empty bucket) and the owner's slot.
type ownerEntry struct{ key, slot int32 }

// newOwners returns the owner set for a fabric of the given channel
// count: flat up to flatChannels, hashed above.
func newOwners(channels int) owners {
	if channels <= flatChannels {
		return owners{flat: make([]int32, channels)}
	}
	return owners{}
}

// claim gives c to slot if c is free, and reports whether it did.
func (o *owners) claim(c ChannelID, slot int32) bool {
	if o.flat == nil {
		return o.claimHashed(c, slot)
	}
	return o.claimFlat(c, slot)
}

// free releases c and returns the slot that owned it, or -1 if c was
// free.
func (o *owners) free(c ChannelID) int32 {
	if o.flat == nil {
		return o.freeHashed(c)
	}
	return o.freeFlat(c)
}

// of returns the slot that owns c, or -1 if c is free.
func (o *owners) of(c ChannelID) int32 {
	if o.flat == nil {
		return o.ofHashed(c)
	}
	return o.flat[c] - 1
}

// claimFlat is claim on the flat form.
func (o *owners) claimFlat(c ChannelID, slot int32) bool {
	if o.flat[c] != 0 {
		return false
	}
	o.flat[c] = slot + 1
	o.n++
	return true
}

// freeFlat is free on the flat form.
func (o *owners) freeFlat(c ChannelID) int32 {
	s := o.flat[c] - 1
	if s >= 0 {
		o.flat[c] = 0
		o.n--
	}
	return s
}

// lowest returns the lowest-numbered owned channel and its owner's slot,
// or -1 and -1 when none is owned. It scans the whole table, so only
// diagnostics call it.
func (o *owners) lowest() (ChannelID, int32) {
	if o.flat != nil {
		for c, s := range o.flat {
			if s != 0 {
				return ChannelID(c), s - 1
			}
		}
		return -1, -1
	}
	best := ownerEntry{key: -1, slot: -1}
	for _, e := range o.tab {
		if e.key != 0 && (best.key < 0 || e.key < best.key) {
			best = e
		}
	}
	if best.key < 0 {
		return -1, -1
	}
	return ChannelID(best.key - 1), best.slot
}

// home is c's first bucket in the hashed table: the top bits of c times
// 2^32/φ.
func (o *owners) home(c ChannelID) int {
	return int(uint32(c) * 0x9e3779b9 >> o.shift)
}

// claimHashed is claim on the hashed form.
//
//lint:hotpath
func (o *owners) claimHashed(c ChannelID, slot int32) bool {
	if 4*(o.n+1) > len(o.tab) {
		o.grow()
	}
	key, mask := int32(c)+1, len(o.tab)-1
	for i := o.home(c); ; i = (i + 1) & mask {
		switch e := &o.tab[i]; e.key {
		case 0:
			e.key, e.slot = key, slot
			o.n++
			return true
		case key:
			return false
		}
	}
}

// find returns c's bucket in the hashed table, or -1 if c is free.
func (o *owners) find(c ChannelID) int {
	if len(o.tab) == 0 {
		return -1
	}
	key, mask := int32(c)+1, len(o.tab)-1
	for i := o.home(c); ; i = (i + 1) & mask {
		switch o.tab[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// ofHashed is of on the hashed form. It is kept out of line so that of
// inlines.
//
//lint:hotpath
//go:noinline
func (o *owners) ofHashed(c ChannelID) int32 {
	if i := o.find(c); i >= 0 {
		return o.tab[i].slot
	}
	return -1
}

// freeHashed is free on the hashed form. It deletes by backward shift:
// each entry after the hole, up to the next empty bucket, moves into the
// hole when the hole lies on its probe path (from its home bucket up to
// where it sits), and its old bucket becomes the hole. No entry is then
// cut off from its home by an empty bucket, so no tombstones are needed.
//
//lint:hotpath
func (o *owners) freeHashed(c ChannelID) int32 {
	i := o.find(c)
	if i < 0 {
		return -1
	}
	s, mask := o.tab[i].slot, len(o.tab)-1
	for j := (i + 1) & mask; o.tab[j].key != 0; j = (j + 1) & mask {
		if (j-o.home(ChannelID(o.tab[j].key-1)))&mask >= (j-i)&mask {
			o.tab[i] = o.tab[j]
			i = j
		}
	}
	o.tab[i] = ownerEntry{}
	o.n--
	return s
}

// grow doubles the hashed table, or makes its first minBuckets, and
// reinserts every entry. Outlined so claim's hot path carries no make.
func (o *owners) grow() {
	old := o.tab
	size := max(2*len(old), minBuckets)
	o.tab = make([]ownerEntry, size)
	o.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		i := o.home(ChannelID(e.key - 1))
		for o.tab[i].key != 0 {
			i = (i + 1) & mask
		}
		o.tab[i] = e
	}
}
