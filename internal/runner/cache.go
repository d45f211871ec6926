package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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

// entry is the on-disk cache record: the canonical key string guards
// against hash collisions and keeps entries self-describing.
type entry struct {
	Key    string `json:"key"`
	Result Result `json:"result"`
}

// Cache is a content-addressed result store: one JSON file per cell at
// <dir>/<hh>/<hash>.json where hh is the first two hex digits of the
// cell hash (fan-out keeps directories small). Entries are written via
// temp-file + rename, so a killed run leaves only whole entries behind
// and a concurrent writer of the same cell is harmless (same content,
// atomic replace). Load and Store may be called from concurrent engine
// workers.
type Cache struct {
	dir string
}

// OpenCache creates (if needed) and returns the cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash+".json")
}

// Load returns the cached result for key, reporting whether it was
// present. A missing or corrupt (unparseable) entry is a plain miss:
// the cell recomputes and Store overwrites it — the cache is an
// accelerator, not a source of truth. A *colliding* entry — a valid
// record whose canonical key string differs from the requested key at
// the same hash path — is different: it means either a SHA-256
// collision or an externally mangled cache, and silently recomputing
// would let the two cells keep overwriting each other. Load reports it
// as an error naming both canonical keys so the operator can see
// exactly which pair of cells is fighting over the path.
func (c *Cache) Load(key Key) (Result, bool, error) {
	buf, err := os.ReadFile(c.path(key.Hash()))
	if err != nil {
		return Result{}, false, nil
	}
	var e entry
	if err := json.Unmarshal(buf, &e); err != nil {
		return Result{}, false, nil
	}
	if e.Key != key.String() {
		return Result{}, false, fmt.Errorf(
			"runner: cache collision at %s:\n  requested key %s\n  stored key    %s",
			c.path(key.Hash()), key.String(), e.Key)
	}
	return e.Result, true, nil
}

// Store persists the result for key.
func (c *Cache) Store(key Key, res Result) error {
	hash := key.Hash()
	path := c.path(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runner: store cell: %w", err)
	}
	buf, err := json.Marshal(entry{Key: key.String(), Result: res})
	if err != nil {
		return fmt.Errorf("runner: store cell: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), hash+".tmp*")
	if err != nil {
		return fmt.Errorf("runner: store cell: %w", err)
	}
	_, werr := tmp.Write(append(buf, '\n'))
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		if rmErr := os.Remove(tmp.Name()); rmErr != nil {
			werr = fmt.Errorf("%w (cleanup: %v)", werr, rmErr)
		}
		return fmt.Errorf("runner: store cell: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("runner: store cell: %w", err)
	}
	return nil
}
