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

// Every figure's cell manifest at one trial: the number of distinct cache
// keys a "-fig all -trials 1" run stores (in its cache log, where a cell
// two figures share appears once per figure) and the SHA-256 of their
// sorted, newline-joined canonical strings. A refactor of the figure
// code must leave both unchanged; an intended key change bumps
// runner.Schema and these constants together.
const (
	manifestKeys   = 570
	manifestSHA256 = "8a8dd04d767dd3138887949e274de21f53d7c864dcb8f0dc58ee9f9ab91c3523"
)

// TestManifestKeysStable pins which cells every figure asks for: a change
// that moves any cache key (a new field, a different trial count or seed
// derivation, a dropped cell) fails here before it silently empties a
// warm cache.
func TestManifestKeysStable(t *testing.T) {
	dir := t.TempDir()
	if _, err := capture(t, func() error {
		return run(options{fig: "all", trials: 1, seed: 1997, cacheDir: dir})
	}); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var keys []string
	for _, path := range logs {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(buf, []byte{'\n'}), []byte{'\n'}) {
			var e struct {
				Key string `json:"key"`
			}
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if !seen[e.Key] {
				seen[e.Key] = true
				keys = append(keys, e.Key)
			}
		}
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	got := hex.EncodeToString(sum[:])
	if len(keys) == manifestKeys && got == manifestSHA256 {
		return
	}
	modes := map[string]int{}
	for _, k := range keys {
		for _, f := range strings.Split(k, "|") {
			if m, ok := strings.CutPrefix(f, "mode="); ok {
				modes[m]++
			}
		}
	}
	t.Fatalf("manifest moved: %d keys, sha256 %s (want %d, %s); keys per mode: %v",
		len(keys), got, manifestKeys, manifestSHA256, modes)
}
