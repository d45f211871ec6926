package recover_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/mcastsim"
	"repro/internal/mesh"
	"repro/internal/model"
	recov "repro/internal/recover"
	"repro/internal/sim"
	"repro/internal/wormhole"
)

var testSoft = model.Software{
	Send: model.Linear{Fixed: 200, PerByte: 0.15},
	Recv: model.Linear{Fixed: 200, PerByte: 0.15},
	Hold: model.Linear{Fixed: 200, PerByte: 0.15},
}

// calibrate measures t_end between the chain's extremes on a healthy
// fabric, as every experiment driver does before installing faults.
func calibrate(t *testing.T, topo wormhole.Topology, addrs []int, bytes int) int64 {
	t.Helper()
	net := wormhole.New(topo, wormhole.DefaultConfig())
	tend, err := mcastsim.Unicast(net, addrs[0], addrs[len(addrs)-1], bytes, mcastsim.Config{Software: testSoft})
	if err != nil {
		t.Fatal(err)
	}
	return tend
}

// meshGroup places k members on the mesh and returns the dim-ordered
// chain with the root index.
func meshGroup(m *mesh.Mesh, seed uint64, k int) (chain.Chain, int) {
	addrs := sim.NewRNG(seed).Sample(m.NumNodes(), k)
	ch := chain.New(addrs, m.DimOrderLess)
	root, ok := ch.Index(addrs[0])
	if !ok {
		panic("source lost")
	}
	return ch, root
}

// TestHealthyMatchesMcastsim: on a fault-free fabric the recovery layer
// must execute the exact multicast mcastsim executes — same deliveries,
// same latency, same worm count, zero recovery actions. The per-send
// deadlines and orphan machinery must be pure bookkeeping until
// something actually fails.
func TestHealthyMatchesMcastsim(t *testing.T) {
	m := mesh.New2D(8, 8)
	const k, bytes = 12, 1024
	addrs := sim.NewRNG(7).Sample(m.NumNodes(), k)
	ch := chain.New(addrs, m.DimOrderLess)
	root, _ := ch.Index(addrs[0])
	tend := calibrate(t, m, addrs, bytes)
	thold := testSoft.Hold.At(bytes)

	for _, tab := range []core.SplitTable{
		core.BinomialTable{Max: k},
		core.NewOptTable(k, thold, tend),
	} {
		base, err := mcastsim.Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, bytes, mcastsim.Config{Software: testSoft})
		if err != nil {
			t.Fatal(err)
		}
		got, err := recov.Run(wormhole.New(m, wormhole.DefaultConfig()), tab, ch, root, bytes, recov.Config{
			Sim:  mcastsim.Config{Software: testSoft},
			TEnd: tend,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Latency != base.Latency || got.Worms != base.Worms ||
			got.BlockedCycles != base.BlockedCycles || got.InjectWaitCycles != base.InjectWaitCycles {
			t.Fatalf("healthy run diverges from mcastsim:\n got %+v\nbase %+v", got, base)
		}
		if !reflect.DeepEqual(got.Deliveries, base.Deliveries) {
			t.Fatalf("healthy deliveries diverge:\n got %v\nbase %v", got.Deliveries, base.Deliveries)
		}
		oh := got.Overhead
		if oh.Retransmits != 0 || oh.Cancelled != 0 || oh.RepairSends != 0 || oh.OrphanSends != 0 || oh.Repairs != 0 {
			t.Fatalf("healthy run performed recovery actions: %+v", oh)
		}
		if oh.Sends != got.Worms {
			t.Fatalf("Sends=%d but Worms=%d on a healthy run", oh.Sends, got.Worms)
		}
		if got.Delivered != k-1 || got.Abandoned != 0 || got.FallbackAt != -1 {
			t.Fatalf("healthy outcome wrong: %+v", got)
		}
		for i, s := range got.Status {
			if s != mcastsim.StatusDelivered {
				t.Fatalf("healthy status[%d] = %v", i, s)
			}
		}
	}
}

// stuckChannel refuses flits on its channels without reporting them
// dead — the failure mode that exercises the timeout path (the fault
// layer cannot prove unreachability, so only the deadline notices).
type stuckChannel []wormhole.ChannelID

func (s stuckChannel) Dead(wormhole.ChannelID) bool          { return false }
func (s stuckChannel) Up(c wormhole.ChannelID, _ int64) bool { return !slices.Contains(s, c) }

// TestTimeoutRepairAndOrphanReassignment walks the full recovery ladder
// deterministically: root 0 must reach node 3 across a silently-stuck
// row-0 channel; retransmits burn the budget, the pair is given up, and
// the orphan is re-assigned to group member 5, whose XY path avoids the
// stuck link. Everything still gets delivered — node 3 as adopted.
func TestTimeoutRepairAndOrphanReassignment(t *testing.T) {
	m := mesh.New2D(4, 4)
	const bytes = 256
	addrs := []int{0, 3, 5}
	ch := chain.New(addrs, m.DimOrderLess)
	root, _ := ch.Index(0)
	pos3, _ := ch.Index(3)
	pos5, _ := ch.Index(5)
	tend := calibrate(t, m, addrs, bytes)

	// Stick the second east hop of row 0: on 0->3's XY path, but on
	// neither 0->5 (east one hop, then north) nor 5->3 (row 1 east, then
	// south).
	path := wormhole.PathChannels(m, 0, 3)
	net := wormhole.New(m, wormhole.DefaultConfig())
	net.SetFaults(stuckChannel{path[2]})

	res, err := recov.Run(net, core.BinomialTable{Max: len(ch)}, ch, root, bytes, recov.Config{
		Sim:  mcastsim.Config{Software: testSoft},
		TEnd: tend,
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 2 || res.Abandoned != 0 {
		t.Fatalf("want both destinations delivered, got %+v", res)
	}
	if res.Status[pos3] != mcastsim.StatusAdopted {
		t.Fatalf("node 3 status = %v, want adopted (orphan re-assignment)", res.Status[pos3])
	}
	if res.Status[pos5] == mcastsim.StatusAbandoned {
		t.Fatalf("node 5 abandoned: %+v", res)
	}
	oh := res.Overhead
	if oh.Retransmits < 2 {
		t.Fatalf("want the retry budget burnt on the stuck path, got %+v", oh)
	}
	if oh.Repairs < 1 || oh.OrphanSends < 1 {
		t.Fatalf("want a give-up and an orphan re-assignment, got %+v", oh)
	}
	if oh.Cancelled < 1 {
		t.Fatalf("retransmits must withdraw the stale worm first: %+v", oh)
	}
	if res.Deliveries[pos3] < 0 || res.Deliveries[pos3] <= res.Deliveries[pos5] {
		t.Fatalf("adopted delivery should land after its relay: %v", res.Deliveries)
	}
}

// TestBinomialFallbackRecorded: the churn limit of a 5-member group is
// 2 + 5/4 = 3 give-ups. Two silently stuck channels, the second east hop
// of row 0 (on 0->3) and the east hop out of node 5 (on 5's XY routes
// to 3 and 15), strand enough pairs to reach it: planning must flip to
// binomial recursive-doubling and record the cycle, and every
// destination must still be delivered.
func TestBinomialFallbackRecorded(t *testing.T) {
	m := mesh.New2D(4, 4)
	const bytes = 256
	addrs := []int{0, 3, 5, 13, 15}
	ch := chain.New(addrs, m.DimOrderLess)
	root, _ := ch.Index(0)
	tend := calibrate(t, m, addrs, bytes)
	thold := testSoft.Hold.At(bytes)

	net := wormhole.New(m, wormhole.DefaultConfig())
	net.SetFaults(stuckChannel{wormhole.PathChannels(m, 0, 3)[2], wormhole.PathChannels(m, 5, 6)[1]})

	res, err := recov.Run(net, core.NewOptTable(len(ch), thold, tend), ch, root, bytes, recov.Config{
		Sim:  mcastsim.Config{Software: testSoft},
		TEnd: tend,
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FallbackAt < 0 {
		t.Fatalf("%d give-ups never fell back: %+v", res.Overhead.Repairs, res)
	}
	if res.Abandoned != 0 {
		t.Fatalf("fallback run abandoned destinations: %+v", res)
	}
}

// TestConfigValidation: misconfigurations must be rejected up front.
func TestConfigValidation(t *testing.T) {
	m := mesh.New2D(4, 4)
	ch := chain.New([]int{0, 3}, m.DimOrderLess)
	tab := core.BinomialTable{Max: 2}
	cases := []struct {
		name string
		cfg  recov.Config
	}{
		{"missing TEnd", recov.Config{Sim: mcastsim.Config{Software: testSoft}}},
	}
	for _, c := range cases {
		net := wormhole.New(m, wormhole.DefaultConfig())
		if _, err := recov.Run(net, tab, ch, 0, 64, c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestInputChecksAgree: Run, each group of RunConcurrent and the
// recovery layer's Open share one input check, so each bad input is
// rejected for the same reason behind each caller's own prefix. The
// scatter-allgather collective, which has no root or split table, shares
// the chain, size and address checks.
func TestInputChecksAgree(t *testing.T) {
	m := mesh.New2D(4, 4)
	tab := core.NewOptTable(4, 1, 2)
	cases := []struct {
		name        string
		ch          chain.Chain
		root, bytes int
		want        string
		collective  string // ScatterAllgather's error around the reason, if it shares the check
	}{
		{"duplicate chain", chain.Chain{1, 1}, 0, 8, "appears at positions", "%s"},
		{"root out of range", chain.Chain{1, 2}, 9, 8, "root index 9 outside chain", ""},
		{"chain longer than K", chain.Chain{0, 1, 2, 3, 4}, 0, 8, "exceeds split table", ""},
		{"negative size", chain.Chain{1, 2}, 0, -1, "negative message size", "collective: %s"},
		{"address outside fabric", chain.Chain{1, 99}, 0, 8, "chain address 99 outside fabric", "collective: %s"},
	}
	sim := mcastsim.Config{Software: testSoft}
	for _, c := range cases {
		net := wormhole.New(m, wormhole.DefaultConfig())
		_, err := recov.Open(net, tab, c.ch, c.root, c.bytes, recov.Config{Sim: sim, TEnd: 100}, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Open: err = %v, want %q", c.name, err, c.want)
			continue
		}
		reason := err.Error()
		if _, err := mcastsim.Run(net, tab, c.ch, c.root, c.bytes, sim); err == nil || err.Error() != "mcastsim: "+reason {
			t.Errorf("%s: Run: err = %v, want mcastsim: %s", c.name, err, reason)
		}
		group := []mcastsim.Group{{Tab: tab, Chain: c.ch, Root: c.root, Bytes: c.bytes}}
		if _, err := mcastsim.RunConcurrent(net, group, sim); err == nil || err.Error() != "mcastsim: group 0: "+reason {
			t.Errorf("%s: RunConcurrent: err = %v, want mcastsim: group 0: %s", c.name, err, reason)
		}
		if c.collective == "" {
			continue
		}
		if _, err := collective.ScatterAllgather(net, c.ch, c.bytes, sim); err == nil || err.Error() != fmt.Sprintf(c.collective, reason) {
			t.Errorf("%s: ScatterAllgather: err = %v, want %s", c.name, err, fmt.Sprintf(c.collective, reason))
		}
	}
}

// TestReachableHealthyIsEverything: with no faults the oracle must mark
// the whole group reachable, on fabrics with and without a FaultRouter.
func TestReachableHealthyIsEverything(t *testing.T) {
	m := mesh.New2D(8, 8)
	ch, root := meshGroup(m, 3, 10)
	for i, ok := range recov.Reachable(m, nil, ch, root) {
		if !ok {
			t.Fatalf("healthy fabric: position %d unreachable", i)
		}
	}
}
