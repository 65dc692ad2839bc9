package engine

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/convention"
)

// stmtCache is the prepared-statement LRU. Entries are keyed by language
// + source (+ conventions for ARC, which change the statement's
// meaning). A statement is compiled against a schema, not against data,
// so commits never invalidate an entry; whoever looks one up checks its
// compiled form against the schema at hand (DB.prepareOn).
type stmtCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element
	// evictions counts capacity evictions (LRU entries pushed out by new
	// stores) — the cache-undersized signal.
	evictions atomic.Uint64
}

type cacheEntry struct {
	key  string
	stmt *Stmt
}

func newStmtCache(capacity int) *stmtCache {
	return &stmtCache{cap: capacity, order: list.New(), entries: map[string]*list.Element{}}
}

// cacheKey builds the lookup key. Conventions only affect ARC statement
// semantics, so SQL and Datalog share entries across convention changes.
func cacheKey(lang Lang, conv convention.Conventions, src, pred string) string {
	convPart := ""
	if lang == LangARC {
		convPart = conv.String()
	}
	return fmt.Sprintf("%s\x00%s\x00%s\x00%s", lang, convPart, pred, src)
}

// lookup returns the cached statement, or nil.
func (c *stmtCache) lookup(key string) *Stmt {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).stmt
}

// store inserts a fresh entry, evicting the least recently used past cap.
func (c *stmtCache) store(key string, s *Stmt) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.Remove(el)
		delete(c.entries, key)
	}
	el := c.order.PushFront(&cacheEntry{key: key, stmt: s})
	c.entries[key] = el
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// Evictions reports how many entries capacity pressure has evicted.
func (c *stmtCache) Evictions() uint64 { return c.evictions.Load() }

// Len reports the number of cached statements (for tests).
func (c *stmtCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
