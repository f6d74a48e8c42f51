package service

import (
	"container/list"
	"sync"

	"eqasm"
)

// ProgramCache is the content-addressed store of assembled programs:
// submitting the same source (or an identical circuit) twice assembles
// once. LRU-bounded; programs are shared read-only with every machine
// that executes them. Exported because the coordinator tier keeps the
// same cache in front of its routing (same keys, via
// RequestSpec.CacheKey).
type ProgramCache struct {
	mu     sync.Mutex
	max    int
	byKey  map[string]*list.Element
	lru    list.List // front = most recent; values are *cacheEntry
	hits   int64
	misses int64
}

type cacheEntry struct {
	key  string
	prog *eqasm.Program
}

// NewProgramCache builds a cache bounded to max entries.
func NewProgramCache(max int) *ProgramCache {
	return &ProgramCache{max: max, byKey: map[string]*list.Element{}}
}

// Get returns the cached program for key, if resident.
func (c *ProgramCache) Get(key string) (*eqasm.Program, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).prog, true
	}
	c.misses++
	return nil, false
}

// Put inserts a program under key, evicting the least recently used
// entries beyond the bound.
func (c *ProgramCache) Put(key string, prog *eqasm.Program) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// A concurrent submitter assembled the same content; keep the
		// resident copy.
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, prog: prog})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

// Stats returns the hit/miss counters and the resident entry count.
func (c *ProgramCache) Stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.lru.Len()
}

// Resolve returns the program spec's text denotes under cfg through the
// cache: the resident program on a hit, else a fresh cfg.Compile that
// is cached once prepare (when non-nil) accepts it. prepare also runs
// on a hit; the service plans the program there, the coordinator,
// which runs nothing itself, passes nil. The key is
// RequestSpec.CacheKey, so both tiers resolve alike-hashing text to one
// program.
func (c *ProgramCache) Resolve(cfg Config, spec RequestSpec, prepare func(*eqasm.Program) error) (prog *eqasm.Program, hit bool, err error) {
	key := spec.CacheKey()
	prog, hit = c.Get(key)
	if !hit {
		if prog, err = cfg.Compile(spec.Source, spec.Format); err != nil {
			return nil, false, err
		}
	}
	if prepare != nil {
		if err := prepare(prog); err != nil {
			return nil, false, err
		}
	}
	if !hit {
		c.Put(key, prog)
	}
	return prog, hit, nil
}
