package batch

import (
	"container/list"
	"context"
	"sync"
)

// Key identifies one reduction outcome. The serving layer derives it with
// core.ResultKey (input digest plus every option that is not per-call
// plumbing), so equal keys mean equal results and a hit returns exactly
// what a miss would.
type Key string

// Status of a Cache.Acquire call.
type Status int

const (
	// Hit: the value was cached; use it directly.
	Hit Status = iota
	// Lead: the caller owns the flight — it must compute the value and
	// then Commit or Abort, or every coalesced follower hangs.
	Lead
	// Follow: an identical computation is in flight; Wait on it.
	Follow
)

// Flight is one in-progress computation under a key. The leader resolves
// it through Cache.Commit or Cache.Abort; followers block in Wait.
type Flight struct {
	key  Key
	done chan struct{}
	val  any
	ok   bool
}

// Wait blocks until the leader resolves the flight or ctx is done. ok is
// false when the leader aborted (failed, was cancelled, or chose not to
// cache): the follower must then compute the value itself — it does not
// become a new leader, so one misbehaving submission can never wedge a
// convoy of followers behind a chain of leaders.
func (f *Flight) Wait(ctx context.Context) (val any, ok bool, err error) {
	select {
	case <-f.done:
		return f.val, f.ok, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// Cache is the digest-keyed result cache: a bounded LRU of immutable
// entries plus single-flight coalescing. Entries are values, never
// evicted or mutated by job lifecycle events — forgetting a served job
// (DELETE /v1/jobs/{id}) prunes that job's metrics and table row but can
// never corrupt an entry an in-flight identical job is about to read;
// only capacity pressure evicts, and eviction just unlinks the entry
// (readers that already fetched the value keep a valid copy).
type Cache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recent; values are *entry
	entries map[Key]*list.Element
	flights map[Key]*Flight

	hits, misses, coalesced, aborted uint64
}

type entry struct {
	key Key
	val any
}

// NewCache builds a cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[Key]*list.Element),
		flights: make(map[Key]*Flight),
	}
}

// Acquire resolves a key: a cached value (Hit), leadership of a new
// flight (Lead — the caller must Commit or Abort), or an existing flight
// to Wait on (Follow).
func (c *Cache) Acquire(k Key) (val any, fl *Flight, st Status) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).val, nil, Hit
	}
	if fl, ok := c.flights[k]; ok {
		c.coalesced++
		return nil, fl, Follow
	}
	fl = &Flight{key: k, done: make(chan struct{})}
	c.flights[k] = fl
	c.misses++
	return nil, fl, Lead
}

// Commit stores the leader's value, wakes the followers with it, and
// retires the flight. The value must be immutable from here on — every
// future hit and every follower shares it.
func (c *Cache) Commit(fl *Flight, val any) {
	c.mu.Lock()
	if c.flights[fl.key] == fl {
		delete(c.flights, fl.key)
	}
	if el, ok := c.entries[fl.key]; ok {
		// A racing leader (possible after an abort) already stored the
		// key; keep the existing entry — equal keys mean equal values.
		c.lru.MoveToFront(el)
	} else {
		c.entries[fl.key] = c.lru.PushFront(&entry{key: fl.key, val: val})
		for c.lru.Len() > c.cap {
			old := c.lru.Back()
			c.lru.Remove(old)
			delete(c.entries, old.Value.(*entry).key)
		}
	}
	c.mu.Unlock()
	fl.val, fl.ok = val, true
	close(fl.done)
}

// Abort retires the flight without storing anything — the leader failed,
// was cancelled, or produced an uncacheable run (faulted, killed).
// Followers wake with ok=false and recompute locally.
func (c *Cache) Abort(fl *Flight) {
	c.mu.Lock()
	if c.flights[fl.key] == fl {
		delete(c.flights, fl.key)
	}
	c.aborted++
	c.mu.Unlock()
	fl.ok = false
	close(fl.done)
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns the lifetime counters: hits, misses (flights led),
// coalesced followers, and aborted flights.
func (c *Cache) Stats() (hits, misses, coalesced, aborted uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.coalesced, c.aborted
}
