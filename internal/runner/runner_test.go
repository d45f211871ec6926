package runner

import (
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

func TestKeyHashDistinguishesFields(t *testing.T) {
	base := sampleKey(0)
	seen := map[string]string{base.Hash(): "base"}
	for name, k := range map[string]Key{
		"trial": sampleKey(1),
		"mode":  {Mode: "fault", Platform: base.Platform, Algo: base.Algo, Soft: base.Soft, K: 32, Bytes: 4096, Seed: 1997, THold: 128, TEnd: 640},
		"bytes": {Mode: "mcast", Platform: base.Platform, Algo: base.Algo, Soft: base.Soft, K: 32, Bytes: 8192, Seed: 1997, THold: 128, TEnd: 640},
		"extra": {Mode: "mcast", Platform: base.Platform, Algo: base.Algo, Soft: base.Soft, K: 32, Bytes: 4096, Seed: 1997, THold: 128, TEnd: 640, Extra: "g=2"},
	} {
		h := k.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("key variants %q and %q collide", name, prev)
		}
		seen[h] = name
		if len(h) != 64 || strings.ToLower(h) != h {
			t.Fatalf("hash %q is not lowercase hex sha-256", h)
		}
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := sampleKey(0)
	if _, ok, err := c.Load(key); ok || err != nil {
		t.Fatalf("empty cache reported hit=%v err=%v", ok, err)
	}
	res := Result{
		Metrics: map[string]float64{"latency": 12345, "blocked": 0},
		Payload: json.RawMessage(`{"deliveries":[0,7,12345]}`),
	}
	if err := c.Store(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("stored entry did not load")
	}
	if got.Metric("latency") != 12345 || string(got.Payload) != string(res.Payload) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, ok, err := c.Load(sampleKey(1)); ok || err != nil {
		t.Fatalf("different key: hit=%v err=%v", ok, err)
	}
}

// A payload round-trips byte for byte, and a result without one writes
// no payload key, so metric-only entries keep their on-disk bytes.
func TestCachePayload(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := json.RawMessage(`{"Latency":12345,"Deliveries":[0,7,12345]}`)
	if err := c.Store(sampleKey(0), Result{Payload: payload}); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Load(sampleKey(0))
	if err != nil || !ok || string(got.Payload) != string(payload) {
		t.Fatalf("payload round trip: ok=%v err=%v payload=%s", ok, err, got.Payload)
	}
	if err := c.Store(sampleKey(1), Result{Metrics: map[string]float64{"latency": 1}}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(c.path(sampleKey(1).Hash()))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(buf), "payload") {
		t.Fatalf("metric-only entry carries a payload key: %s", buf)
	}
}

// A corrupt (unparseable) entry reads as a plain miss — the cell
// recomputes and overwrites it. A *colliding* entry (valid JSON whose
// canonical key string differs from the requested key) is an error,
// and the error must name both canonical keys so the colliding pair is
// diagnosable from the message alone.
func TestCacheCorruptMissesAndCollisionNamesKeyPair(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := sampleKey(0)
	if err := c.Store(key, Result{Metrics: map[string]float64{"latency": 1}}); err != nil {
		t.Fatal(err)
	}
	path := c.path(key.Hash())
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Load(key); ok || err != nil {
		t.Fatalf("corrupt entry: hit=%v err=%v, want plain miss", ok, err)
	}
	collide, err := json.Marshal(entry{Key: sampleKey(9).String(), Result: Result{Metrics: map[string]float64{"latency": 999}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, collide, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := c.Load(key)
	if ok {
		t.Fatal("colliding entry (different canonical key) reported a hit")
	}
	if err == nil {
		t.Fatal("colliding entry read as a silent miss, want an error naming the key pair")
	}
	for _, want := range []string{key.String(), sampleKey(9).String()} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("collision error %q does not name key %q", err, want)
		}
	}
	// The engine must surface the collision instead of recomputing over it.
	e := &Exec{Cache: c, Resume: true}
	if _, _, err := e.Run("collide", makeCells(1, nil)); err == nil || !strings.Contains(err.Error(), "collision") {
		t.Fatalf("engine resume over collision: err = %v, want collision error", err)
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
// first. A directory at each entry path makes both stores fail; cell 2
// waits until cell 5 has run, so cell 5's store usually fails first.
func TestStoreErrorFirstInManifestOrder(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 5} {
		if err := os.MkdirAll(c.path(sampleKey(i).Hash()), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	want := c.path(sampleKey(2).Hash())
	for round := 0; round < 10; round++ {
		cells := makeCells(8, nil)
		ran5 := make(chan struct{})
		run2, run5 := cells[2].Run, cells[5].Run
		cells[2].Run = func() (Result, error) {
			<-ran5
			time.Sleep(time.Millisecond)
			return run2()
		}
		cells[5].Run = func() (Result, error) {
			defer close(ran5)
			return run5()
		}
		e := &Exec{Workers: 4, Cache: c}
		_, _, err := e.Run("stores", cells)
		if err == nil || !strings.Contains(err.Error(), want) {
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

// FuzzCacheLoad: whatever bytes sit at a cell's path, Load returns a
// plain miss when they do not parse as an entry, a hit with the stored
// result when they parse as an entry for the requested key, and
// otherwise a collision error naming both canonical keys — never a
// panic, and never a hit for another key. A result built from the fuzz
// input then round-trips exactly through Store and Load. The seed corpus
// holds a real entry, a truncated one and one for a foreign key.
func FuzzCacheLoad(f *testing.F) {
	key := sampleKey(0)
	stored := Result{
		Metrics: map[string]float64{"latency": 12345, "blocked": 0.25},
		Payload: json.RawMessage(`{"deliveries":[0,7,12345]}`),
	}
	real, err := json.Marshal(entry{Key: key.String(), Result: stored})
	if err != nil {
		f.Fatal(err)
	}
	foreign, err := json.Marshal(entry{Key: sampleKey(9).String(), Result: stored})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(real, '\n'), "latency", 12345.0, int64(7))
	f.Add(real[:len(real)/2], "blocked", 0.25, int64(-1))
	f.Add(foreign, "", -1e300, int64(1)<<62)

	f.Fuzz(func(t *testing.T, data []byte, name string, v float64, s int64) {
		c, err := OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := c.path(key.Hash())
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var want entry
		perr := json.Unmarshal(data, &want)
		got, ok, lerr := c.Load(key)
		switch {
		case perr != nil:
			if ok || lerr != nil {
				t.Fatalf("unparseable entry: hit=%v err=%v, want a plain miss", ok, lerr)
			}
		case want.Key == key.String():
			if !ok || lerr != nil || !reflect.DeepEqual(got, want.Result) {
				t.Fatalf("entry for the key: hit=%v err=%v result %+v, want a hit with %+v", ok, lerr, got, want.Result)
			}
		default:
			if ok {
				t.Fatalf("entry for key %q read as a hit for %q", want.Key, key.String())
			}
			if lerr == nil || !strings.Contains(lerr.Error(), key.String()) || !strings.Contains(lerr.Error(), want.Key) {
				t.Fatalf("foreign entry: err = %v, want a collision naming %q and %q", lerr, key.String(), want.Key)
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
		back, ok, err := c.Load(key)
		if err != nil || !ok || !reflect.DeepEqual(back, res) {
			t.Fatalf("round trip: hit=%v err=%v\n got %+v\nwant %+v", ok, err, back, res)
		}
	})
}
