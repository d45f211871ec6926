package wormhole

import (
	"math/rand"
	"testing"
)

// TestOwnersMatchModel drives both forms of the owner set with seeded
// random claim, free and of calls and checks every answer, and the
// count, against a map. The channels come from three pools: a 1024x1024
// route's Y leg (IDs 4,094 apart), IDs that share a home bucket at
// every table size up to 8,192 buckets, and random IDs. Each run fills
// the set to about 1,000 channels and drains it again, so the hashed
// table grows from its first size and deletes by backward shift inside
// long collision runs; the set's own invariants (owners.check) are
// checked as it goes.
func TestOwnersMatchModel(t *testing.T) {
	const channels = 1 << 20
	var pool []ChannelID
	for i := 0; i < 200; i++ {
		pool = append(pool, ChannelID(1025+4094*i))
	}
	pool = append(pool, colliding(channels, 13, 64)...)
	r := rand.New(rand.NewSource(33))
	for len(pool) < 1500 {
		pool = append(pool, ChannelID(r.Intn(channels)))
	}
	for _, hashed := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			o := owners{flat: make([]int32, channels)}
			if hashed {
				o = owners{}
			}
			ownersModelRun(t, &o, pool, rand.New(rand.NewSource(seed)))
			if hashed && len(o.tab) < 4096 {
				t.Fatalf("seed %d: the hashed table reached only %d buckets", seed, len(o.tab))
			}
		}
	}
}

// ownersModelRun runs 40,000 random calls on o against a map, claiming
// three times in four for the first half and once in four after.
func ownersModelRun(t *testing.T, o *owners, pool []ChannelID, r *rand.Rand) {
	t.Helper()
	model := make(map[ChannelID]int32)
	const ops = 40000
	for op := 0; op < ops; op++ {
		c := pool[r.Intn(len(pool))]
		want, owned := model[c]
		if !owned {
			want = -1
		}
		claimP := 3
		if op >= ops/2 {
			claimP = 1
		}
		switch k := r.Intn(5); {
		case k < claimP:
			slot := int32(r.Intn(1 << 16))
			if got := o.claim(c, slot); got == owned {
				t.Fatalf("op %d: claim(%d) = %v with the channel owned %v", op, c, got, owned)
			}
			if !owned {
				model[c] = slot
			} else if got := o.of(c); got != want {
				t.Fatalf("op %d: a refused claim changed channel %d's owner to %d, want %d", op, c, got, want)
			}
		case k < 4:
			if got := o.free(c); got != want {
				t.Fatalf("op %d: free(%d) = %d, want %d", op, c, got, want)
			}
			delete(model, c)
			if got := o.of(c); got != -1 {
				t.Fatalf("op %d: of(%d) = %d after free, want -1", op, c, got)
			}
		default:
			if got := o.of(c); got != want {
				t.Fatalf("op %d: of(%d) = %d, want %d", op, c, got, want)
			}
		}
		if o.n != len(model) {
			t.Fatalf("op %d: count %d, want %d", op, o.n, len(model))
		}
		if op%97 == 0 {
			if err := o.check(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	for c, want := range model {
		if got := o.of(c); got != want {
			t.Fatalf("of(%d) = %d at the end, want %d", c, got, want)
		}
	}
	if err := o.check(); err != nil {
		t.Fatal(err)
	}
}

// colliding returns k channel IDs below channels that share a home
// bucket at every hashed table size up to 2^bits buckets.
func colliding(channels, bits, k int) []ChannelID {
	probe := owners{shift: uint8(32 - bits)}
	groups := make(map[int][]ChannelID)
	for c := ChannelID(0); int(c) < channels; c++ {
		h := probe.home(c)
		if groups[h] = append(groups[h], c); len(groups[h]) == k {
			return groups[h]
		}
	}
	panic("no bucket collects enough channels")
}

// TestOwnersFreeOfFreeChannel: freeing a channel nobody owns changes
// nothing and returns -1 on both forms, also on a hashed set that has no
// table yet.
func TestOwnersFreeOfFreeChannel(t *testing.T) {
	for _, o := range []owners{newOwners(64), {}} {
		if s := o.free(7); s != -1 || o.n != 0 {
			t.Fatalf("free of a free channel on an empty set: %d, count %d", s, o.n)
		}
		o.claim(7, 3)
		if s := o.free(9); s != -1 || o.of(7) != 3 || o.n != 1 {
			t.Fatalf("free of a free channel: %d; channel 7's owner %d, count %d", s, o.of(7), o.n)
		}
		if s := o.free(7); s != 3 || o.free(7) != -1 || o.n != 0 {
			t.Fatalf("free of channel 7: %d, count %d", s, o.n)
		}
	}
}
