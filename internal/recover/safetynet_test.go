package recover

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/mcastsim"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// TestDefaultDeadlinePinned: the default MaxCycles bound of Run is the
// one it had while the recovery schedule was configurable and the bound
// spelled out its own copy of the mcastsim safety net.
func TestDefaultDeadlinePinned(t *testing.T) {
	m4, m8 := mesh.New2D(4, 4), mesh.New2D(8, 8)
	addrs := sim.NewRNG(7).Sample(64, 12)
	cases := []struct {
		m     *mesh.Mesh
		addrs []int
		bytes int
		cfg   Config
		want  int64
	}{
		{m4, []int{0, 3, 5}, 256, Config{Sim: mcastsim.Config{Software: serveSoft}, TEnd: 1000}, 4578192},
		{m8, addrs, 1024, Config{Sim: mcastsim.Config{Software: serveSoft, AddrBytes: 8}, TEnd: 1500}, 42342684},
	}
	for _, c := range cases {
		ch := chain.New(c.addrs, c.m.DimOrderLess)
		root, _ := ch.Index(c.addrs[0])
		g, err := Open(wormhole.New(c.m, wormhole.DefaultConfig()), core.BinomialTable{Max: len(ch)}, ch, root, c.bytes, c.cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.safetyNet(); got != c.want {
			t.Errorf("k=%d: default MaxCycles %d, want %d", len(ch), got, c.want)
		}
	}
}
