package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/wallclock"
)

// Result is the serializable outcome of one cell. Figures define their
// own metric vocabulary (the merge reads back what the cell closure
// stored); the cache only guarantees exact round-tripping. Every value
// stored here originates as an int64 cycle count or a ratio of such
// counts, and Go's JSON encoder round-trips float64 exactly, so a
// cache hit reproduces the computed result bit for bit.
type Result struct {
	// Failed marks a run excluded from aggregation (F1: unreachable
	// destination or watchdog abort). Failed results carry no metrics.
	Failed bool `json:"failed,omitempty"`
	// Metrics are named scalar outcomes ("latency", "blocked", ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Payload is a caller's own typed result as JSON, for consumers
	// that store a whole engine result rather than named metrics.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Metric returns a named scalar, 0 when absent.
func (r Result) Metric(name string) float64 { return r.Metrics[name] }

// entry is the cache record, one JSON line of a log: the canonical key
// string, which keeps every line self-describing, and the result, kept
// raw until a Load decodes it.
type entry struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// logExt marks a cache log among the files of a cache directory.
const logExt = ".jsonl"

// Cache is an append-only result store. Each handle (one OpenCache)
// writes at most one log, <dir>/<creation time>-<random>.jsonl, created
// by its first Store; every Store appends one entry as a JSON line as
// its cell completes, so a killed run keeps each cell it finished and at
// worst leaves a torn last line. No two handles share a log, and the
// random part keeps logs written on different machines apart when their
// directories are merged.
//
// OpenCache reads every log in name order, which is creation order,
// into an in-memory index; a later line for a key wins, so a forced
// refresh wins on the next open. A handle sees the cells present at
// open plus its own stores, and reads the whole cache once, at open.
// Load and Store may be called from concurrent engine workers.
type Cache struct {
	dir string

	mu      sync.Mutex
	results map[string]json.RawMessage // canonical key -> its latest result
	log     *os.File                   // nil until the first Store
}

// OpenCache creates dir if needed and returns a handle on the cache
// there, holding the result of every line its logs carry that parses
// as an entry. Other lines (a torn tail after a kill) are skipped: the
// cache is an accelerator, not a source of truth, and a missing cell
// recomputes.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: open cache: %w", err)
	}
	files, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, fmt.Errorf("runner: open cache: %w", err)
	}
	c := &Cache{dir: dir, results: map[string]json.RawMessage{}}
	for _, f := range files {
		if f.IsDir() || filepath.Ext(f.Name()) != logExt {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			return nil, fmt.Errorf("runner: open cache: %w", err)
		}
		for len(buf) > 0 {
			var line []byte
			line, buf, _ = bytes.Cut(buf, []byte{'\n'})
			var e entry
			if json.Unmarshal(line, &e) == nil && json.Unmarshal(e.Result, new(Result)) == nil {
				c.results[e.Key] = e.Result
			}
		}
	}
	return c, nil
}

// Load returns the cached result for key, reporting whether there is
// one. Each hit decodes a fresh value, so no two callers share its maps
// or payload bytes.
func (c *Cache) Load(key Key) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var res Result
	raw, ok := c.results[key.String()]
	if !ok || json.Unmarshal(raw, &res) != nil {
		return Result{}, false
	}
	return res, true
}

// Store appends the result for key to the handle's log, creating the
// log on the first call, and serves it to this handle's later Loads.
func (c *Cache) Store(key Key, res Result) error {
	k := key.String()
	raw, err := json.Marshal(res)
	var line []byte
	if err == nil {
		line, err = json.Marshal(entry{Key: k, Result: raw})
	}
	if err != nil {
		return fmt.Errorf("runner: store cell: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		stamp := wallclock.Now().UTC().Format("20060102T150405.000000000Z")
		if c.log, err = os.CreateTemp(c.dir, stamp+"-*"+logExt); err != nil {
			return fmt.Errorf("runner: store cell: %w", err)
		}
	}
	if _, err := c.log.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("runner: store cell: %w", err)
	}
	c.results[k] = raw
	return nil
}

// Close releases the handle's log; a later Store starts a new one.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	if err != nil {
		return fmt.Errorf("runner: close cache: %w", err)
	}
	return nil
}
