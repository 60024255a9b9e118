package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"hsas/internal/durable"
	"hsas/internal/trace"
)

// Cache stores job results (and optional trace artifacts) under their
// content address. Implementations must be safe for concurrent use; a
// nil Cache on the Engine disables caching entirely.
//
// Get returns (nil, false, nil) on a miss. A corrupt entry is reported
// as a miss so the job is simply re-simulated (the cache is a
// checkpoint, never a source of truth).
type Cache interface {
	Get(key string) (*JobResult, bool, error)
	Put(key string, res *JobResult) error
	GetTrace(key string) ([]byte, bool, error)
	PutTrace(key string, csv []byte) error
}

// MemCache is an in-process Cache for tests and cache-only servers
// without a durable directory.
type MemCache struct {
	mu      sync.RWMutex
	results map[string]JobResult
	traces  map[string][]byte
}

// NewMemCache returns an empty in-memory cache.
func NewMemCache() *MemCache {
	return &MemCache{results: map[string]JobResult{}, traces: map[string][]byte{}}
}

// Get implements Cache.
func (c *MemCache) Get(key string) (*JobResult, bool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.results[key]
	if !ok {
		return nil, false, nil
	}
	out := r
	return &out, true, nil
}

// Put implements Cache.
func (c *MemCache) Put(key string, res *JobResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results[key] = *res
	return nil
}

// GetTrace implements Cache.
func (c *MemCache) GetTrace(key string) ([]byte, bool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.traces[key]
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(t))
	copy(out, t)
	return out, true, nil
}

// PutTrace implements Cache.
func (c *MemCache) PutTrace(key string, csv []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := make([]byte, len(csv))
	copy(cp, csv)
	c.traces[key] = cp
	return nil
}

// Len returns the number of cached results.
func (c *MemCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.results)
}

// DirCache is the durable content-addressed cache: one JSON file per
// result at <dir>/<key[:2]>/<key>.json (the two-character fan-out keeps
// directory listings manageable on large campaigns), traces alongside
// as <key>.trace.csv. Writes go through a fsync'd temp file plus rename
// plus directory fsync (internal/durable), so a crash mid-write — even
// a power loss — leaves either the old entry or nothing, never a torn
// file that would poison a resume. Reads still defend in depth: entries
// that fail to parse (e.g. written by an older, non-fsyncing version)
// are reported as misses and re-simulated.
type DirCache struct {
	dir string
}

// NewDirCache opens (creating if needed) a cache rooted at dir.
func NewDirCache(dir string) (*DirCache, error) {
	if dir == "" {
		return nil, errors.New("campaign: cache dir must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: opening cache: %w", err)
	}
	return &DirCache{dir: dir}, nil
}

func (c *DirCache) path(key, suffix string) string {
	fan := key
	if len(fan) > 2 {
		fan = key[:2]
	}
	return filepath.Join(c.dir, fan, key+suffix)
}

// Get implements Cache. Unreadable or undecodable entries count as
// misses (the job re-simulates and overwrites them).
func (c *DirCache) Get(key string) (*JobResult, bool, error) {
	b, err := os.ReadFile(c.path(key, ".json"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("campaign: reading cache entry %s: %w", key, err)
	}
	var res JobResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, false, nil // torn or stale-schema entry: treat as miss
	}
	return &res, true, nil
}

// Put implements Cache with an atomic write.
func (c *DirCache) Put(key string, res *JobResult) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("campaign: encoding cache entry %s: %w", key, err)
	}
	return c.writeAtomic(c.path(key, ".json"), b)
}

// GetTrace implements Cache. Like Get, a torn or truncated artifact is
// a miss, never garbage: the bytes must parse as a trace CSV (header
// plus full rows) before they are served, so a crash-corrupted file can
// not flow verbatim through the HTTP trace endpoint.
func (c *DirCache) GetTrace(key string) ([]byte, bool, error) {
	b, err := os.ReadFile(c.path(key, ".trace.csv"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("campaign: reading cache trace %s: %w", key, err)
	}
	if _, err := trace.ReadCSV(bytes.NewReader(b)); err != nil {
		return nil, false, nil // torn/empty/truncated artifact: treat as miss
	}
	return b, true, nil
}

// PutTrace implements Cache.
func (c *DirCache) PutTrace(key string, csv []byte) error {
	return c.writeAtomic(c.path(key, ".trace.csv"), csv)
}

func (c *DirCache) writeAtomic(path string, b []byte) error {
	if err := durable.WriteFileAtomic(path, b); err != nil {
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	return nil
}
