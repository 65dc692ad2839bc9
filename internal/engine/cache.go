package engine

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/convention"
	"repro/internal/relation"
)

// stmtCache is the prepared-statement LRU. Entries are keyed by language
// + source (+ conventions for ARC, which change the statement's
// meaning). A statement is compiled against a schema, not against data,
// so commits never invalidate an entry; whoever looks one up checks its
// compiled form against the schema at hand (DB.prepareOn). Compilation
// is single-flight: one per key at a time, later arrivals wait for it.
type stmtCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element
	flights map[string]*flight // compilations in progress
	// evictions counts capacity evictions (LRU entries pushed out by new
	// stores) — the cache-undersized signal.
	evictions atomic.Uint64
}

type cacheEntry struct {
	key  string
	stmt *Stmt
}

// flight is one compilation in progress. Its leader fills stmt and c (or
// err) before land releases done; the others wait on done and read them.
type flight struct {
	done sync.WaitGroup
	stmt *Stmt
	c    *compiled
	err  error
}

func newStmtCache(capacity int) *stmtCache {
	return &stmtCache{cap: capacity, order: list.New(), entries: map[string]*list.Element{}, flights: map[string]*flight{}}
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

// acquire returns, under one lock so that no arrival falls between them:
// the cached statement with its compiled form when that is fresh for the
// schema of rels (a hit, f == nil); else the compilation already in
// flight for key, to wait for; else a new flight the caller leads — it
// compiles and must land it. s is the cached statement either way, nil
// when there is none.
func (c *stmtCache) acquire(key string, rels map[string]*relation.Relation) (s *Stmt, cur *compiled, f *flight, leads bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		s = el.Value.(*cacheEntry).stmt
		if cur = s.cur.Load(); cur.fresh(rels) {
			return s, cur, nil, false
		}
	}
	if f = c.flights[key]; f != nil {
		return s, nil, f, false
	}
	f = &flight{}
	f.done.Add(1)
	c.flights[key] = f
	return s, nil, f, true
}

// land ends the flight its leader started: a statement not cached yet is
// stored, and the waiters are released.
func (c *stmtCache) land(key string, f *flight, store bool) {
	c.mu.Lock()
	delete(c.flights, key)
	if store {
		c.storeLocked(key, f.stmt)
	}
	c.mu.Unlock()
	f.done.Done()
}

// storeLocked inserts a fresh entry, evicting the least recently used
// past cap.
func (c *stmtCache) storeLocked(key string, s *Stmt) {
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
