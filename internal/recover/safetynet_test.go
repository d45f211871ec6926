package recover_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/mcastsim"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

// TestDefaultDeadlinePinned: the default MaxCycles bound of a reliable
// run is the one it had while the recovery schedule was configurable
// and the bound spelled out its own copy of the mcastsim safety net.
// The bound is read off the deadline error of a run whose one member
// joins past it.
func TestDefaultDeadlinePinned(t *testing.T) {
	m4, m8 := mesh.New2D(4, 4), mesh.New2D(8, 8)
	addrs := sim.NewRNG(7).Sample(64, 12)
	cases := []struct {
		m     *mesh.Mesh
		addrs []int
		bytes int
		cfg   mcastsim.ReliableConfig
		want  int64
	}{
		{m4, []int{0, 3, 5}, 256, mcastsim.ReliableConfig{Sim: mcastsim.Config{Software: testSoft}, TEnd: 1000}, 4578192},
		{m8, addrs, 1024, mcastsim.ReliableConfig{Sim: mcastsim.Config{Software: testSoft, AddrBytes: 8}, TEnd: 1500}, 42342684},
	}
	for _, c := range cases {
		ch := chain.New(c.addrs, c.m.DimOrderLess)
		root, _ := ch.Index(c.addrs[0])
		late, _ := ch.Index(c.addrs[1])
		members := make([]bool, len(ch))
		for p := range members {
			members[p] = p != late
		}
		g, err := mcastsim.Open(wormhole.New(c.m, wormhole.DefaultConfig()), core.BinomialTable{Max: len(ch)}, ch, root, c.bytes, c.cfg, members)
		if err != nil {
			t.Fatal(err)
		}
		g.Schedule(1<<40, func() { g.Join(late) })
		err = g.Run(0)
		if want := fmt.Sprintf("run not complete after %d cycles;", c.want); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("k=%d: err = %v, want %q", len(ch), err, want)
		}
	}
}
