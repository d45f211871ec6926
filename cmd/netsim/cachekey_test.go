package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Pinned cache identity of keyInvocations: the number of distinct keys
// they store and the SHA-256 of the sorted canonical key strings joined
// by newlines.
const (
	cacheKeys      = 33
	cacheKeySHA256 = "e52afb90f96d133d71de8ad432dd30699431967c0d026a66210dc274d5ee3622"
)

// keyInvocations cover every mode that stores a result: plain runs on
// each fabric with each algorithm, -recover, -traffic healthy, shaped
// and faulted, -churn with channel faults and with a degree cap,
// -autotune on a single run and -autotune -traffic.
func keyInvocations() []options {
	var runs []options
	for _, topo := range []string{"mesh", "torus", "bmin", "bfly"} {
		for _, algo := range []string{"opt", "opt-tree", "binomial", "sequential"} {
			o := base()
			o.topo, o.algo = topo, algo
			runs = append(runs, o)
		}
	}
	add := func(o options, mut func(*options)) {
		mut(&o)
		runs = append(runs, o)
	}
	add(base(), func(o *options) { o.topo, o.policy, o.deadline = "bmin", "dest", 500000 })
	add(base(), func(o *options) { o.faults, o.degraded, o.flaky, o.faultSeed, o.recover = 3, 2, 2, 2, true })
	add(trafficBase(), func(o *options) {})
	add(trafficBase(), func(o *options) { o.arrival, o.admission, o.rate, o.skew = "bursty", "bounded", 2000, 0.5 })
	add(trafficBase(), func(o *options) { o.faults, o.faultSeed = 3, 2 })
	add(churnBase(), func(o *options) { o.faults, o.faultSeed = 3, 2 })
	add(churnBase(), func(o *options) { o.degreeCap, o.repairPolicy, o.rejoinFrac = 3, "binom", 0.25 })
	add(base(), func(o *options) { o.autotune = true })
	add(trafficBase(), func(o *options) { o.autotune, o.faults, o.faultSeed = true, 3, 2 })
	return runs
}

// cacheLines returns the lines of the cache logs in dir, in name order
// (the order in which the cache reads them).
func cacheLines(t *testing.T, dir string) [][]byte {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, path := range logs {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, bytes.Split(bytes.TrimSuffix(buf, []byte{'\n'}), []byte{'\n'})...)
	}
	return lines
}

// TestCacheKeysStable pins the cache keys netsim stores across every
// mode: a change that moves any key field (the platform, the software
// encoding, a mode's Extra text, the churn scenario, the autotune
// surface) fails here before it silently empties a warm cache.
func TestCacheKeysStable(t *testing.T) {
	dir := t.TempDir()
	for _, o := range keyInvocations() {
		o.cacheDir = dir
		if _, err := capture(t, func() error { return run(o) }); err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
	}
	seen := map[string]bool{}
	var keys []string
	for _, line := range cacheLines(t, dir) {
		var e struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if !seen[e.Key] {
			seen[e.Key] = true
			keys = append(keys, e.Key)
		}
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	if got := hex.EncodeToString(sum[:]); len(keys) != cacheKeys || got != cacheKeySHA256 {
		t.Fatalf("cache keys moved: %d keys, sha256 %s (want %d, %s):\n%s",
			len(keys), got, cacheKeys, cacheKeySHA256, strings.Join(keys, "\n"))
	}
}
