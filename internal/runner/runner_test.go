package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleKey(trial int) Key {
	return Key{
		Mode: "mcast", Platform: "16x16 mesh", Algo: "opt", Soft: "send=95+0.008/B",
		K: 32, Bytes: 4096, Trial: trial, Seed: 1997, THold: 128, TEnd: 640,
	}
}

// The canonical key string is the cache's compatibility contract: a
// change to the encoding must bump Schema, and this test is the tripwire.
func TestKeyStringStable(t *testing.T) {
	got := sampleKey(3).String()
	want := "schema=2|mode=mcast|platform=16x16 mesh|algo=opt|soft=send=95+0.008/B|k=32|bytes=4096|x=0|trial=3|seed=1997|addrbytes=0|thold=128|tend=640|faultseed=0|deadpct=0|recseed=0|extra="
	if got != want {
		t.Fatalf("key encoding changed without a Schema bump:\n got %s\nwant %s", got, want)
	}
}

// TestKeyStringAllocsOnce: String allocates only the string it returns,
// also when every number takes its widest form; the figures render
// thousands of keys per sweep.
func TestKeyStringAllocsOnce(t *testing.T) {
	wide := sampleKey(math.MinInt)
	wide.K, wide.Bytes, wide.X, wide.AddrBytes, wide.DeadPct = math.MinInt, math.MinInt, math.MinInt, math.MinInt, math.MinInt
	wide.Seed, wide.FaultSeed, wide.RecSeed = math.MaxUint64, math.MaxUint64, math.MaxUint64
	wide.THold, wide.TEnd = math.MinInt64, math.MinInt64
	wide.Extra = "iters=64"
	for _, k := range []Key{sampleKey(3), wide} {
		if a := testing.AllocsPerRun(100, func() { _ = k.String() }); a > 1 {
			t.Errorf("String of %s: %v allocations, want at most 1", k, a)
		}
	}
}

// openCache opens the cache in dir, to be closed when the test ends, or
// fails the test.
func openCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	})
	return c
}

// logLines returns every line of the cache logs in dir, in name order.
func logLines(t *testing.T, dir string) [][]byte {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "*"+logExt))
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, path := range logs {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.SplitAfter(buf, []byte{'\n'}) {
			if len(line) > 0 {
				lines = append(lines, line)
			}
		}
	}
	return lines
}

// entryLine is key's entry holding res, as a log line.
func entryLine(tb testing.TB, key Key, res Result) []byte {
	tb.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		tb.Fatal(err)
	}
	line, err := json.Marshal(entry{Key: key.String(), Result: raw})
	if err != nil {
		tb.Fatal(err)
	}
	return append(line, '\n')
}

// latency is a metric-only result.
func latency(v float64) Result { return Result{Metrics: map[string]float64{"latency": v}} }

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	key := sampleKey(0)
	if _, ok := c.Load(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	res := Result{
		Metrics: map[string]float64{"latency": 12345, "blocked": 0},
		Payload: json.RawMessage(`{"deliveries":[0,7,12345]}`),
	}
	if err := c.Store(key, res); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*Cache{"storing handle": c, "reopened": openCache(t, dir)} {
		got, ok := h.Load(key)
		if !ok {
			t.Fatalf("%s: stored entry did not load", name)
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("%s: round trip lost data: %+v", name, got)
		}
		if _, ok := h.Load(sampleKey(1)); ok {
			t.Fatalf("%s: different key hit", name)
		}
	}
}

// A payload round-trips byte for byte, and a result without one writes
// no payload key, so metric-only entries keep their bytes.
func TestCachePayload(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	payload := json.RawMessage(`{"Latency":12345,"Deliveries":[0,7,12345]}`)
	if err := c.Store(sampleKey(0), Result{Payload: payload}); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Load(sampleKey(0))
	if !ok || string(got.Payload) != string(payload) {
		t.Fatalf("payload round trip: ok=%v payload=%s", ok, got.Payload)
	}
	if err := c.Store(sampleKey(1), latency(1)); err != nil {
		t.Fatal(err)
	}
	lines := logLines(t, dir)
	if len(lines) != 2 {
		t.Fatalf("two stores wrote %d lines", len(lines))
	}
	if strings.Contains(string(lines[1]), "payload") {
		t.Fatalf("metric-only entry carries a payload key: %s", lines[1])
	}
}

// TestCacheGarbageLineSkipped: a line that does not parse is skipped and
// the lines around it load; an entry in the per-cell layout that logs
// replaced (<hh>/<hash>.json) is not read at all.
func TestCacheGarbageLineSkipped(t *testing.T) {
	dir := t.TempDir()
	var log []byte
	log = append(log, entryLine(t, sampleKey(0), latency(100))...)
	log = append(log, "{garbage\n"...)
	log = append(log, entryLine(t, sampleKey(1), latency(101))...)
	if err := os.WriteFile(filepath.Join(dir, "a"+logExt), log, 0o644); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "ab", "ab01.json")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, entryLine(t, sampleKey(2), latency(102)), 0o644); err != nil {
		t.Fatal(err)
	}
	c := openCache(t, dir)
	for i := 0; i < 2; i++ {
		if r, ok := c.Load(sampleKey(i)); !ok || r.Metric("latency") != float64(100+i) {
			t.Fatalf("neighbour %d of a garbage line: hit=%v %+v", i, ok, r)
		}
	}
	if _, ok := c.Load(sampleKey(2)); ok {
		t.Fatal("an entry in the old per-cell layout loaded")
	}
}

// TestTornLogResumes: a kill during a write leaves the log cut mid-line.
// Reopened, the cache loads every whole line, and a resumed Exec
// recomputes only the torn cell.
func TestTornLogResumes(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	c := openCache(t, dir)
	if _, _, err := (&Exec{Workers: 2, Cache: c}).Run("cold", makeCells(n, nil)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "*"+logExt))
	if err != nil || len(logs) != 1 {
		t.Fatalf("logs %v (%v), want one", logs, err)
	}
	buf, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(buf[:len(buf)-1], '\n') + 1
	var torn entry
	if err := json.Unmarshal(buf[last:], &torn); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logs[0], buf[:last+(len(buf)-last)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	c = openCache(t, dir)
	for i := 0; i < n; i++ {
		if _, ok := c.Load(sampleKey(i)); ok == (sampleKey(i).String() == torn.Key) {
			t.Fatalf("cell %d: hit=%v after the tear (torn cell %s)", i, ok, torn.Key)
		}
	}
	ran := make([]int32, n)
	results, have, err := (&Exec{Workers: 2, Cache: c, Resume: true}).Run("resume", makeCells(n, ran))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := int32(0)
		if sampleKey(i).String() == torn.Key {
			want = 1
		}
		if ran[i] != want || !have[i] || results[i].Metric("latency") != float64(100+i) {
			t.Fatalf("cell %d: ran %d times (want %d), have=%v %+v", i, ran[i], want, have[i], results[i])
		}
	}
}

// TestForcedRefreshWinsOnReopen: after a Resume: false run stores
// different results under the same keys, the refreshing handle and a
// new one both load the new results.
func TestForcedRefreshWinsOnReopen(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	if _, _, err := (&Exec{Cache: openCache(t, dir)}).Run("old", makeCells(n, nil)); err != nil {
		t.Fatal(err)
	}
	cells := makeCells(n, nil)
	for i := range cells {
		cells[i].Run = func() (Result, error) { return latency(float64(-i)), nil }
	}
	refresh := openCache(t, dir)
	if _, _, err := (&Exec{Cache: refresh}).Run("refresh", cells); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Cache{"refreshing handle": refresh, "new handle": openCache(t, dir)} {
		for i := 0; i < n; i++ {
			if r, ok := c.Load(sampleKey(i)); !ok || r.Metric("latency") != float64(-i) {
				t.Fatalf("%s, cell %d: hit=%v %+v, want the refreshed latency %d", name, i, ok, r, -i)
			}
		}
	}
}

// TestColdExecWritesOneLog: a cold Exec of 320 cells on four workers
// leaves one file in a fresh directory and no subdirectory, and its 320
// lines parse as the 320 cells and reopen with their results.
func TestColdExecWritesOneLog(t *testing.T) {
	const n = 320
	dir := t.TempDir()
	c := openCache(t, dir)
	if _, _, err := (&Exec{Workers: 4, Cache: c}).Run("cold", makeCells(n, nil)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || !files[0].Type().IsRegular() {
		t.Fatalf("cache directory holds %v, want one log file", files)
	}
	keys := map[string]bool{}
	for _, line := range logLines(t, dir) {
		var e entry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		keys[e.Key] = true
	}
	if len(keys) != n {
		t.Fatalf("log holds %d cells, want %d", len(keys), n)
	}
	back := openCache(t, dir)
	for i := 0; i < n; i++ {
		if r, ok := back.Load(sampleKey(i)); !ok || r.Metric("latency") != float64(100+i) {
			t.Fatalf("cell %d reopened: hit=%v %+v", i, ok, r)
		}
	}
}

func makeCells(n int, ran []int32) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		i := i
		cells[i] = Cell{
			Key: sampleKey(i),
			Run: func() (Result, error) {
				if ran != nil {
					ran[i]++
				}
				return Result{Metrics: map[string]float64{"latency": float64(100 + i)}}, nil
			},
		}
	}
	return cells
}

// Shard ownership must partition the manifest: over all n shards every
// cell is computed exactly once, and the shared cache then merges to the
// full result set.
func TestShardsPartitionManifest(t *testing.T) {
	const n, shards = 10, 3
	dir := t.TempDir()
	ran := make([]int32, n)
	for sh := 0; sh < shards; sh++ {
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := &Exec{Workers: 2, Shard: sh, NShards: shards, Cache: c, Resume: true}
		results, have, err := e.Run("part", makeCells(n, ran))
		if err != nil {
			t.Fatal(err)
		}
		// Earlier shards' cells are already in the shared cache, so this
		// shard sees its own cells plus every cell with i%shards < sh.
		for i := range results {
			if have[i] != (i%shards <= sh) {
				t.Fatalf("shard %d/%d: have[%d] = %v", sh, shards, i, have[i])
			}
		}
	}
	for i, r := range ran {
		if r != 1 {
			t.Fatalf("cell %d ran %d times, want exactly once across shards", i, r)
		}
	}
	// Merge run: everything from cache, nothing recomputed.
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	sum := &Summary{}
	e := &Exec{Cache: c, Resume: true, Summary: sum}
	results, have, err := e.Run("merge", makeCells(n, ran))
	if err != nil {
		t.Fatal(err)
	}
	if Missing(have) != 0 {
		t.Fatalf("merge missing %d cells", Missing(have))
	}
	for i, r := range results {
		if r.Metric("latency") != float64(100+i) {
			t.Fatalf("cell %d merged wrong: %+v", i, r)
		}
	}
	if sum.Computed != 0 || sum.Cached != n {
		t.Fatalf("merge summary computed=%d cached=%d, want 0/%d", sum.Computed, sum.Cached, n)
	}
}

// Without Resume the engine recomputes owned cells even when cached — a
// forced refresh — but still stores the new results.
func TestNoResumeRecomputes(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ran := make([]int32, 4)
	e := &Exec{Cache: c}
	if _, _, err := e.Run("a", makeCells(4, ran)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run("b", makeCells(4, ran)); err != nil {
		t.Fatal(err)
	}
	for i, r := range ran {
		if r != 2 {
			t.Fatalf("cell %d ran %d times, want 2 (no -resume)", i, r)
		}
	}
}

func TestRunErrorNamesCell(t *testing.T) {
	cells := makeCells(3, nil)
	cells[1].Run = func() (Result, error) { return Result{}, fmt.Errorf("boom") }
	e := &Exec{}
	_, _, err := e.Run("errs", cells)
	if err == nil || !strings.Contains(err.Error(), "trial=1") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want cell key + cause", err)
	}
}

// TestStoreErrorFirstInManifestOrder: when two cells' stores fail, the
// batch reports the lower-index cell's error, whichever worker stored
// first. Cells 2 and 5 return a NaN metric, which JSON cannot encode;
// cell 2 waits until cell 5 has run, so cell 5's store usually fails
// first.
func TestStoreErrorFirstInManifestOrder(t *testing.T) {
	c := openCache(t, t.TempDir())
	nan := func() (Result, error) {
		return Result{Metrics: map[string]float64{"latency": math.NaN()}}, nil
	}
	want := sampleKey(2).String()
	for round := 0; round < 10; round++ {
		cells := makeCells(8, nil)
		ran5 := make(chan struct{})
		cells[2].Run = func() (Result, error) {
			<-ran5
			time.Sleep(time.Millisecond)
			return nan()
		}
		cells[5].Run = func() (Result, error) {
			defer close(ran5)
			return nan()
		}
		e := &Exec{Workers: 4, Cache: c}
		_, _, err := e.Run("stores", cells)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "NaN") {
			t.Fatalf("round %d: err = %v, want the store error of cell 2 (%s)", round, err, want)
		}
	}
}

func TestSummaryFinishAndWrite(t *testing.T) {
	s := &Summary{}
	s.add(Batch{Label: "a", Cells: 4, Computed: 2, Cached: 1, Skipped: 1})
	s.add(Batch{Label: "b", Cells: 2, Computed: 2})
	s.Finish("2", "0/2", 4, "results/cache", 1500)
	if s.Cells != 6 || s.Computed != 4 || s.Cached != 1 || s.Skipped != 1 {
		t.Fatalf("totals: cells=%d computed=%d cached=%d skipped=%d", s.Cells, s.Computed, s.Cached, s.Skipped)
	}
	if s.Complete {
		t.Fatal("summary with skipped cells reported complete")
	}
	path := filepath.Join(t.TempDir(), "sum.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fig != "2" || back.Shard != "0/2" || len(back.Batches) != 2 || back.WallMS != 1500 {
		t.Fatalf("round trip: fig=%q shard=%q batches=%d wallms=%d", back.Fig, back.Shard, len(back.Batches), back.WallMS)
	}
}

func TestMissing(t *testing.T) {
	if Missing([]bool{true, false, true, false}) != 2 || Missing(nil) != 0 {
		t.Fatal("Missing miscounts")
	}
}

// FuzzCacheLoad: whatever bytes a cell log holds, OpenCache neither
// panics nor fails, and a key hits exactly when some line parses as its
// entry, with the last such line's result; otherwise it misses. A result
// built from the fuzz input then round-trips exactly through Store and
// Load, on the same handle and on a reopened one. The seed corpus holds
// a real entry, a truncated one, one for a foreign key, and a log whose
// later line for the key replaces an earlier one around a garbage line.
func FuzzCacheLoad(f *testing.F) {
	key, foreignKey := sampleKey(0), sampleKey(9)
	stored := Result{
		Metrics: map[string]float64{"latency": 12345, "blocked": 0.25},
		Payload: json.RawMessage(`{"deliveries":[0,7,12345]}`),
	}
	real := entryLine(f, key, stored)
	foreign := entryLine(f, foreignKey, stored)
	f.Add(real, "latency", 12345.0, int64(7))
	f.Add(real[:len(real)/2], "blocked", 0.25, int64(-1))
	f.Add(foreign[:len(foreign)-1], "", -1e300, int64(1)<<62)
	later := entryLine(f, key, Result{Failed: true})
	f.Add(bytes.Join([][]byte{real, []byte("{garbage\n"), later, foreign}, nil), "x", 1.5, int64(3))

	f.Fuzz(func(t *testing.T, data []byte, name string, v float64, s int64) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "0"+logExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []Key{key, foreignKey} {
			var want *Result
			for _, line := range bytes.Split(data, []byte{'\n'}) {
				var e entry
				var r Result
				if json.Unmarshal(line, &e) == nil && e.Key == k.String() && json.Unmarshal(e.Result, &r) == nil {
					want = &r
				}
			}
			got, ok := c.Load(k)
			if ok != (want != nil) || ok && !reflect.DeepEqual(got, *want) {
				t.Fatalf("key %s: hit=%v %+v, want the last line that parses as its entry (%+v)", k.String(), ok, got, want)
			}
		}

		if math.IsNaN(v) || math.IsInf(v, 0) {
			return // JSON has no encoding for them; Store reports the error
		}
		name = strings.ToValidUTF8(name, "?")
		payload, err := json.Marshal(map[string][]int64{name: {s, -s, 0}})
		if err != nil {
			t.Fatal(err)
		}
		res := Result{
			Failed:  s%2 != 0,
			Metrics: map[string]float64{name: v},
			Payload: payload,
		}
		if err := c.Store(key, res); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		for which, h := range map[string]*Cache{"same handle": c, "reopened": openCache(t, dir)} {
			if back, ok := h.Load(key); !ok || !reflect.DeepEqual(back, res) {
				t.Fatalf("round trip on the %s: hit=%v\n got %+v\nwant %+v", which, ok, back, res)
			}
		}
	})
}
