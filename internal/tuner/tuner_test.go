package tuner

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// testSurface is a tiny 2x2x2 surface over two algorithms ("bin",
// "opt") with hand-placed crossovers: opt wins everywhere except the
// large-message faulted corner, where bin wins, and the (k=4, small,
// healthy) cell is an exact tie.
func testSurface(t *testing.T) *Surface {
	t.Helper()
	s := New("test 4x4 mesh", []string{"bin", "opt"}, []int{4, 16}, []int{1024, 65536}, []int{0, 2})
	fill := func(ki, bi, pi int, bin, opt float64) {
		s.Set(ki, bi, pi, 0, bin)
		s.Set(ki, bi, pi, 1, opt)
	}
	fill(0, 0, 0, 100, 100) // tie -> index 0 (bin)
	fill(0, 0, 1, 120, 110)
	fill(0, 1, 0, 900, 700)
	fill(0, 1, 1, 950, 1400) // bin wins faulted large
	fill(1, 0, 0, 300, 210)
	fill(1, 0, 1, 340, 250)
	fill(1, 1, 0, 2100, 1500)
	fill(1, 1, 1, 2400, 3600) // bin wins faulted large
	if err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	return s
}

func testAlgos() []Algo {
	tab := func(k int, thold, tend model.Time) core.SplitTable {
		return core.BinomialTable{Max: k}
	}
	return []Algo{{Name: "bin", Table: tab}, {Name: "opt", Ordered: true, Table: tab}}
}

func TestCompileTieBreakAndUnmeasured(t *testing.T) {
	s := testSurface(t)
	if got := s.Select(4, 1024, 0); got != 0 {
		t.Fatalf("exact tie selected %d, want lowest index 0", got)
	}
	if got := s.Select(4, 65536, 2); got != 0 {
		t.Fatalf("faulted large-message cell selected %d, want bin (0)", got)
	}
	if got := s.Select(16, 1024, 0); got != 1 {
		t.Fatalf("healthy cell selected %d, want opt (1)", got)
	}
	// Unmeasured entries are skipped; an all-unmeasured cell compiles
	// to index 0.
	u := New("u", []string{"a", "b"}, []int{4}, []int{1024, 4096}, []int{0})
	u.Set(0, 0, 0, 1, 50) // only b measured at 1024
	if err := u.Compile(); err != nil {
		t.Fatal(err)
	}
	if u.Select(4, 1024, 0) != 1 {
		t.Fatal("unmeasured entry won selection")
	}
	if u.Select(4, 4096, 0) != 0 {
		t.Fatal("all-unmeasured cell did not fall back to index 0")
	}
}

// Lookups clamp-floor each coordinate: a query between grid points
// uses the nearest point not above it, and queries below the axis
// clamp to its first point.
func TestCellIndexClampFloor(t *testing.T) {
	s := testSurface(t)
	for _, tc := range []struct {
		k, bytes, pct int
		want          int
	}{
		{4, 1024, 0, s.CellIndex(4, 1024, 0)},
		{7, 2048, 1, s.CellIndex(4, 1024, 0)},     // floors everywhere
		{2, 16, 0, s.CellIndex(4, 1024, 0)},       // below axes clamps up
		{16, 65536, 2, s.CellIndex(16, 65536, 2)}, // exact top corner
		{99, 1 << 20, 9, s.CellIndex(16, 65536, 2)},
	} {
		if got := s.CellIndex(tc.k, tc.bytes, tc.pct); got != tc.want {
			t.Fatalf("CellIndex(%d,%d,%d) = %d, want %d", tc.k, tc.bytes, tc.pct, got, tc.want)
		}
	}
}

func TestSetRoundTripAndHash(t *testing.T) {
	s := testSurface(t)
	buf, err := EncodeSet(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSet(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Hash() != s.Hash() {
		t.Fatal("round trip changed the content hash")
	}
	buf2, err := EncodeSet(back[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("re-encoding a decoded set is not byte-identical")
	}
	// A tampered latency breaks the recorded hash.
	tampered := bytes.Replace(buf, []byte("1400"), []byte("1401"), 1)
	if _, err := DecodeSet(tampered); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("tampered artifact decoded: %v", err)
	}
}

func TestNewPolicyValidates(t *testing.T) {
	s := testSurface(t)
	algos := testAlgos()
	if _, err := NewPolicy(s, algos[:1], PolicyConfig{}); err == nil {
		t.Fatal("accepted short algorithm binding list")
	}
	wrong := []Algo{algos[1], algos[0]}
	if _, err := NewPolicy(s, wrong, PolicyConfig{}); err == nil {
		t.Fatal("accepted out-of-order algorithm bindings")
	}
	raw := New("raw", []string{"a"}, []int{2}, []int{8}, []int{0})
	if _, err := NewPolicy(raw, []Algo{{Name: "a", Table: algos[0].Table}}, PolicyConfig{}); err == nil {
		t.Fatal("accepted uncompiled surface")
	}
}

// Seeded recalibration regression: with a fixed observation schedule,
// the drift windows move the (16, 65536, pct=0) crossover from opt to
// bin at an exact, pinned observation count, Choose records exactly
// one switch at the pinned cycle, and the whole sequence replays
// identically on a fresh policy (determinism across reruns).
func TestRecalibrationSwitchPointPinned(t *testing.T) {
	run := func() ([]Switch, []int, float64) {
		s := testSurface(t)
		p, err := NewPolicy(s, testAlgos(), PolicyConfig{Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		var picks []int
		// Surface says opt=1500 vs bin=2100 at (16, 65536, 0). Feed
		// observations of opt running 1.6x its prediction (2400 cycles):
		// after enough window fill, eff(opt) = 1500*drift exceeds 2100
		// and the pick flips to bin.
		for i := 0; i < 6; i++ {
			at := int64(1000 * (i + 1))
			picks = append(picks, p.Choose(at, 16, 65536).Algo)
			p.Observe(at+500, 1, 16, 65536, 2400)
		}
		sw, dropped := p.Switches()
		if dropped != 0 {
			t.Fatalf("dropped %d switches", dropped)
		}
		return sw, picks, p.Drift(1)
	}
	sw, picks, drift := run()
	// drift(opt) = 2400/1500 = 1.6 from the very first observation, so
	// the second Choose already sees eff(opt) = 2400 > 2100 and flips.
	wantPicks := []int{1, 0, 0, 0, 0, 0}
	for i, w := range wantPicks {
		if picks[i] != w {
			t.Fatalf("pick sequence %v, want %v", picks, wantPicks)
		}
	}
	if len(sw) != 1 || sw[0] != (Switch{At: 2000, From: 1, To: 0, K: 16, Bytes: 65536}) {
		t.Fatalf("switch log %+v, want exactly one opt->bin switch at cycle 2000", sw)
	}
	if drift != 1.6 {
		t.Fatalf("drift(opt) = %g, want 1.6", drift)
	}
	// Replay determinism.
	sw2, picks2, drift2 := run()
	if len(sw2) != len(sw) || sw2[0] != sw[0] || drift2 != drift {
		t.Fatalf("rerun diverged: %+v vs %+v", sw2, sw)
	}
	for i := range picks {
		if picks[i] != picks2[i] {
			t.Fatalf("rerun pick sequence diverged at %d", i)
		}
	}
}

// The drift window slides: once the inflated observations age out,
// the crossover moves back — and the return switch is recorded too.
func TestDriftWindowSlidesBack(t *testing.T) {
	s := testSurface(t)
	p, err := NewPolicy(s, testAlgos(), PolicyConfig{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	at := int64(0)
	step := func(obs int64) int {
		at += 1000
		pick := p.Choose(at, 16, 65536).Algo
		p.Observe(at+1, 1, 16, 65536, obs)
		return pick
	}
	step(2400) // inflated: drift -> 1.6
	if pick := step(2400); pick != 0 {
		t.Fatal("inflated drift did not flip the pick")
	}
	// Four healthy observations push the inflated ones out of the
	// window; drift returns to ~1.0 and the pick flips back.
	for i := 0; i < 4; i++ {
		step(1500)
	}
	if pick := p.Choose(at+1000, 16, 65536).Algo; pick != 1 {
		t.Fatal("healthy drift did not flip the pick back to opt")
	}
	sw, _ := p.Switches()
	if len(sw) != 2 || sw[0].To != 0 || sw[1].To != 1 {
		t.Fatalf("switch log %+v, want opt->bin then bin->opt", sw)
	}
}

// Recalibrated scales a base parameter by the observation-weighted
// mean drift.
func TestRecalibrated(t *testing.T) {
	s := testSurface(t)
	p, err := NewPolicy(s, testAlgos(), PolicyConfig{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Recalibrated(640); got != 640 {
		t.Fatalf("unobserved Recalibrated(640) = %d, want unchanged", got)
	}
	p.Observe(1, 1, 16, 65536, 3000) // ratio 2.0
	if got := p.Recalibrated(640); got != 1280 {
		t.Fatalf("Recalibrated(640) = %d, want 1280 at drift 2.0", got)
	}
}

// The selection hot path must be allocation-free (//lint:hotpath):
// Choose, Observe, Select and PickFor.
func TestSelectionAllocFree(t *testing.T) {
	s := testSurface(t)
	p, err := NewPolicy(s, testAlgos(), PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var sink int
	if n := testing.AllocsPerRun(100, func() {
		sink += p.Choose(5, 16, 65536).Algo
		p.Observe(6, 1, 16, 65536, 1500)
		sink += s.Select(16, 1024, 0)
		sink += p.PickFor(4, 1024)
	}); n != 0 {
		t.Fatalf("selection hot path allocates %.1f allocs/op, want 0", n)
	}
	_ = sink
}

// TestPickForAndName: PickFor names an algorithm whose table plans the
// group, the way a single-shot caller (netsim -autotune) runs it.
func TestPickForAndName(t *testing.T) {
	s := testSurface(t)
	p, err := NewPolicy(s, testAlgos(), PolicyConfig{FaultPct: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.PickFor(16, 65536) != 0 {
		t.Fatal("faulted operating point should pick bin")
	}
	if tab := testAlgos()[p.PickFor(16, 65536)].Table(16, 128, 640); tab == nil || tab.K() < 16 {
		t.Fatal("the pick's table is unusable")
	}
	if p.Name(0) != "bin" || p.Name(1) != "opt" {
		t.Fatal("Name mapping broken")
	}
}
