package sim

import (
	"math"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGKnownStream(t *testing.T) {
	// Pin the SplitMix64 stream so recorded experiment outputs can never
	// silently drift: these are the reference values for seed 0.
	r := NewRNG(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds produced identical first values")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n < 40; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnRoughlyUniform(t *testing.T) {
	r := NewRNG(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	for v, c := range counts {
		if c < trials/n*8/10 || c > trials/n*12/10 {
			t.Fatalf("value %d drawn %d times out of %d (expected ~%d)", v, c, trials, trials/n)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	for n := 0; n < 30; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has len %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v invalid", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinctInRange(t *testing.T) {
	r := NewRNG(11)
	f := func(nr, kr uint8) bool {
		n := int(nr)%100 + 1
		k := int(kr) % (n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFullRangeIsPermutation(t *testing.T) {
	r := NewRNG(13)
	s := r.Sample(20, 20)
	sorted := append([]int(nil), s...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("Sample(20,20) = %v is not a permutation", s)
		}
	}
}

func TestSampleUniformCoverage(t *testing.T) {
	// Every element should be selected with probability k/n.
	r := NewRNG(17)
	const n, k, trials = 16, 4, 40000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		for _, v := range r.Sample(n, k) {
			counts[v]++
		}
	}
	expect := trials * k / n
	for v, c := range counts {
		if c < expect*85/100 || c > expect*115/100 {
			t.Fatalf("element %d selected %d times, expected ~%d", v, c, expect)
		}
	}
}

func TestSplitStreamsDiffer(t *testing.T) {
	r := NewRNG(21)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams start identically")
	}
}

func TestEventQueueOrdersByTime(t *testing.T) {
	var q EventQueue
	var got []int
	q.At(30, func() { got = append(got, 30) })
	q.At(10, func() { got = append(got, 10) })
	q.At(20, func() { got = append(got, 20) })
	q.RunDue(100)
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("order = %v", got)
	}
}

func TestEventQueueFIFOAtSameTime(t *testing.T) {
	var q EventQueue
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		q.At(5, func() { got = append(got, i) })
	}
	q.RunDue(5)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEventQueueRunDueStopsAtNow(t *testing.T) {
	var q EventQueue
	ran := 0
	q.At(5, func() { ran++ })
	q.At(6, func() { ran++ })
	if n := q.RunDue(5); n != 1 || ran != 1 {
		t.Fatalf("RunDue(5) ran %d events", ran)
	}
	if q.Len() != 1 || q.NextTime() != 6 {
		t.Fatalf("queue state: len=%d", q.Len())
	}
	q.RunDue(6)
	if ran != 2 || q.Len() != 0 {
		t.Fatalf("final state: ran=%d len=%d", ran, q.Len())
	}
}

func TestEventQueueCallbackCanSchedule(t *testing.T) {
	var q EventQueue
	var got []int
	q.At(1, func() {
		got = append(got, 1)
		q.At(1, func() { got = append(got, 2) }) // same-time chained event
		q.At(9, func() { got = append(got, 9) })
	})
	q.RunDue(1)
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("chained same-time event not run: %v", got)
	}
	q.RunDue(9)
	if len(got) != 3 || got[2] != 9 {
		t.Fatalf("future event lost: %v", got)
	}
}

func TestEventQueueNextTimePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NextTime on empty queue did not panic")
		}
	}()
	var q EventQueue
	q.NextTime()
}

func TestEventQueueRandomizedOrdering(t *testing.T) {
	r := NewRNG(33)
	var q EventQueue
	var got []int64
	var want []int64
	for i := 0; i < 500; i++ {
		at := int64(r.Intn(100))
		want = append(want, at)
		q.At(at, func() { got = append(got, at) })
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	q.RunDue(1000)
	if len(got) != len(want) {
		t.Fatalf("ran %d of %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestStatsMoments(t *testing.T) {
	var s Stats
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 || s.Mean() != 5 {
		t.Fatalf("n=%d mean=%v", s.N(), s.Mean())
	}
	if math.Abs(s.StdDev()-2.138089935) > 1e-6 {
		t.Fatalf("stddev = %v", s.StdDev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min=%v max=%v", s.Min(), s.Max())
	}
	if s.CI95() <= 0 {
		t.Fatalf("CI95 = %v", s.CI95())
	}
}

func TestStatsEmptyAndSingle(t *testing.T) {
	var s Stats
	if s.Mean() != 0 || s.Var() != 0 || s.StdErr() != 0 {
		t.Fatal("empty stats not all zero")
	}
	s.Add(42)
	if s.Mean() != 42 || s.Var() != 0 || s.Min() != 42 || s.Max() != 42 {
		t.Fatalf("single sample: %v", s.String())
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Fatal("empty median")
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 {
		t.Fatal("Median mutated input")
	}
}

func TestForEachVisitsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		const n = 137
		var visited [n]int32
		ForEachProgress(n, workers, func(i int) { atomic.AddInt32(&visited[i], 1) }, nil)
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
	ForEachProgress(0, 4, func(int) { t.Fatal("fn called for n=0") }, nil)
}

func TestForEachParallelResultsDeterministic(t *testing.T) {
	run := func() [64]uint64 {
		var out [64]uint64
		ForEachProgress(64, 4, func(i int) {
			r := NewRNG(uint64(i))
			out[i] = r.Uint64()
		}, nil)
		return out
	}
	if run() != run() {
		t.Fatal("parallel runs with index-local state diverged")
	}
}

// recorder is a Handler that logs the events it receives.
type recorder struct{ got [][2]int64 }

func (r *recorder) Fire(at int64, arg int) { r.got = append(r.got, [2]int64{at, int64(arg)}) }

// TestEventQueueHandlerEvents: Schedule delivers each event's time and
// argument to its handler, and shares At's (time, insertion) order.
func TestEventQueueHandlerEvents(t *testing.T) {
	var q EventQueue
	r := &recorder{}
	q.Schedule(7, r, 1)
	q.At(5, func() { r.got = append(r.got, [2]int64{5, -1}) })
	q.Schedule(5, r, 2)
	q.Schedule(3, r, 3)
	q.RunDue(10)
	want := [][2]int64{{3, 3}, {5, -1}, {5, 2}, {7, 1}}
	if len(r.got) != len(want) {
		t.Fatalf("got %v, want %v", r.got, want)
	}
	for i := range want {
		if r.got[i] != want[i] {
			t.Fatalf("got %v, want %v", r.got, want)
		}
	}
}

// counter is a Handler that only counts, so it allocates nothing.
type counter struct{ n int }

func (c *counter) Fire(int64, int) { c.n++ }

// TestEventQueueSteadyStateAllocs: once the heap has held its largest
// backlog, scheduling and running handler events allocates nothing.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	var q EventQueue
	c := &counter{}
	now, rounds := int64(0), 0
	round := func() {
		for i := 0; i < 100; i++ {
			q.Schedule(now+int64(i%13), c, i)
		}
		now += 13
		q.RunDue(now)
		rounds++
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("steady-state schedule-and-run made %.1f allocs per round, want 0", n)
	}
	if c.n != rounds*100 || q.Len() != 0 {
		t.Fatalf("ran %d events with %d pending, want %d and none", c.n, q.Len(), rounds*100)
	}
}

// stream is a claimed event stream: event i fires at times[i]. Lazily,
// each event queues its successor on its claimed number when it fires;
// eagerly, the whole stream is scheduled at once. onFire, when set, runs
// after each event of the stream fires.
type stream struct {
	q      *EventQueue
	first  uint64
	times  []int64
	lazy   bool
	fired  int
	onFire func(at int64, i int)
}

// start claims the stream's numbers, or schedules the whole stream.
func (s *stream) start() {
	if !s.lazy {
		for i, at := range s.times {
			s.q.Schedule(at, s, i)
		}
		return
	}
	s.first = s.q.Claim(len(s.times))
	s.q.ScheduleClaimed(s.first, s.times[0], s, 0)
}

func (s *stream) Fire(at int64, i int) {
	s.fired++
	if s.lazy && i+1 < len(s.times) {
		s.q.ScheduleClaimed(s.first+uint64(i+1), s.times[i+1], s, i+1)
	}
	if s.onFire != nil {
		s.onFire(at, i)
	}
}

// TestClaimedStreamPopsAsScheduledEagerly is the ordering property of
// claimed sequence numbers. A stream of non-decreasing times with many
// ties, scheduled lazily on claimed numbers, must pop in exactly the
// order of the same stream scheduled at the claim, interleaved with
// events scheduled before the claim, after it, and during the run by
// the stream's and by each other's handlers — many of them at the same
// cycle as a later element of the stream, which a fresh sequence number
// would order differently.
func TestClaimedStreamPopsAsScheduledEagerly(t *testing.T) {
	type pop struct {
		at   int64
		kind byte
		id   int
	}
	run := func(seed uint64, lazy bool) []pop {
		r := NewRNG(seed)
		var q EventQueue
		var got []pop
		n := 1 + r.Intn(60)
		times := make([]int64, n)
		at := int64(r.Intn(4))
		for i := range times {
			at += int64(r.Intn(4)) / 2 // half the gaps are ties
			times[i] = at
		}
		ids := 0
		var follow func(at int64)
		follow = func(at int64) {
			id := ids
			ids++
			q.At(at, func() {
				got = append(got, pop{at, 'f', id})
				if r.Intn(4) == 0 {
					follow(at + int64(r.Intn(3)))
				}
			})
		}
		for i := r.Intn(4); i > 0; i-- {
			follow(int64(r.Intn(int(at) + 2)))
		}
		s := &stream{q: &q, times: times, lazy: lazy}
		s.onFire = func(at int64, i int) {
			got = append(got, pop{at, 's', i})
			for k := r.Intn(3); k > 0; k-- {
				follow(at + int64(r.Intn(5)))
			}
		}
		s.start()
		for i := r.Intn(4); i > 0; i-- {
			follow(int64(r.Intn(int(at) + 2)))
		}
		for q.Len() > 0 {
			q.RunDue(q.NextTime())
		}
		if s.fired != n {
			t.Fatalf("seed %d: %d of %d stream events fired", seed, s.fired, n)
		}
		return got
	}
	for seed := uint64(1); seed <= 300; seed++ {
		want, got := run(seed, false), run(seed, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d pops lazily, %d eagerly", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: pop %d is %c%d at %d lazily, %c%d at %d eagerly",
					seed, i, got[i].kind, got[i].id, got[i].at, want[i].kind, want[i].id, want[i].at)
			}
		}
	}
}

// TestClaimedStreamSteadyStateAllocs: once the heap has grown, a claimed
// stream that keeps one event queued allocates nothing per event.
func TestClaimedStreamSteadyStateAllocs(t *testing.T) {
	var q EventQueue
	s := &stream{q: &q, times: make([]int64, 100), lazy: true}
	now, rounds := int64(0), 0
	round := func() {
		rounds++
		for i := range s.times {
			s.times[i] = now + int64(i/3)
		}
		s.start()
		for q.Len() > 0 {
			q.RunDue(q.NextTime())
		}
		now = s.times[len(s.times)-1] + 1
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("a claimed stream made %.1f allocs per round, want 0", n)
	}
	if s.fired != rounds*len(s.times) || q.Len() != 0 {
		t.Fatalf("fired %d stream events with %d pending, want %d and none", s.fired, q.Len(), rounds*len(s.times))
	}
}
