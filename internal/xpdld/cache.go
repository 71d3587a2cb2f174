package xpdld

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"xpdl"
)

// DesignHash is the content address of an XPDL source text.
func DesignHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:8])
}

// Cache is the content-addressed compile cache: design source hash →
// compiled *xpdl.Design (parse + check + translate, the front-end work
// that is identical for every run of a design). Entries are
// single-flight: a hundred concurrent jobs submitting the same design
// trigger exactly one compilation, and the rest block on it. The
// compiled Design is immutable and shared, and so is the machine plan it
// builds once (xpdl.Design.Plan), bytecode program included, for every
// machine of the design.
//
// Failed compilations are cached too (the result is just as much a pure
// function of the source), so a sweep of a broken design pays the
// front-end exactly once as well.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	metrics *Metrics
}

type cacheEntry struct {
	once   sync.Once
	design *xpdl.Design
	err    error
}

// NewCache builds an empty cache; m (optional) receives hit/miss
// counters.
func NewCache(m *Metrics) *Cache {
	return &Cache{entries: make(map[string]*cacheEntry), metrics: m}
}

// Compile returns the compiled design for src, compiling at most once
// per distinct source across the cache's lifetime.
func (c *Cache) Compile(src string) (*xpdl.Design, error) {
	key := DesignHash(src)
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if c.metrics != nil {
		if ok {
			c.metrics.Inc("xpdld_compile_cache_hits_total")
		} else {
			c.metrics.Inc("xpdld_compile_cache_misses_total")
		}
	}
	e.once.Do(func() {
		e.design, e.err = xpdl.Compile(src)
		if c.metrics != nil {
			c.metrics.Inc("xpdld_compiles_total")
		}
	})
	return e.design, e.err
}

// Len reports the number of distinct designs cached.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
