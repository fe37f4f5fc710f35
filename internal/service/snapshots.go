package service

import (
	"container/list"
	"sync"

	"d2m"
)

// snapshotCache is the server's d2m.WarmCache: a byte-budget LRU of
// warm-state snapshots keyed by warm identity (d2m.WarmKey). Unlike
// the result cache, whose entries are a few hundred bytes each and
// bounded by count, a snapshot carries the full post-warmup table
// state of a hierarchy — hundreds of kilobytes to a few megabytes —
// so the bound here is a byte budget: inserts evict from the cold end
// until the total fits, and a snapshot larger than the whole budget
// is rejected outright rather than flushing everything else.
type snapshotCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	order   *list.List // front = most recently used; values are *d2m.WarmSnapshot
	byKey   map[string]*list.Element
	missed  map[string]int // warm keys that have missed, and how often
	metrics *Metrics
}

func newSnapshotCache(budget int64, m *Metrics) *snapshotCache {
	return &snapshotCache{
		budget:  budget,
		order:   list.New(),
		byKey:   make(map[string]*list.Element),
		missed:  make(map[string]int),
		metrics: m,
	}
}

// missedKeysCap bounds the miss-tracking map; far above any realistic
// working set, and the map is cleared (losing only capture heuristics,
// never correctness) when a key-churning client fills it.
const missedKeysCap = 65536

// WantWarm is the capture gate (see the root package's WarmCache):
// capturing a snapshot costs a deep copy of the whole hierarchy, so it
// is only worth paying when the warm key is actually shared. A key
// qualifies once it has missed before — the second identical-warmup
// run captures, the third restores — or immediately when a scheduler
// worker announced, through NoteShared, chain followers it will run
// scalar after this run. A lane group counts as one miss: its lanes
// share the warmup in-process and are never announced.
func (c *snapshotCache) WantWarm(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byKey[key]; ok {
		return false // already stored; the next run will hit
	}
	if len(c.missed) >= missedKeysCap {
		c.missed = make(map[string]int)
	}
	c.missed[key]++
	return c.missed[key] >= 2
}

// NoteShared records out-of-band knowledge that key is about to be
// reused (a worker will run a chain follower scalar after the run that
// warms it), so that first run already captures. It implements
// sched.WarmCache.
func (c *snapshotCache) NoteShared(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.missed) >= missedKeysCap {
		c.missed = make(map[string]int)
	}
	c.missed[key]++
}

// GetWarm returns the snapshot for key (refreshing its recency) or nil.
func (c *snapshotCache) GetWarm(key string) *d2m.WarmSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.metrics.SnapshotMisses.Add(1)
		return nil
	}
	c.metrics.SnapshotHits.Add(1)
	c.order.MoveToFront(el)
	return el.Value.(*d2m.WarmSnapshot)
}

// PutWarm stores a snapshot, evicting least-recently-used entries
// until the byte budget holds. Snapshots are immutable, so an entry
// already present under the same key is simply refreshed.
func (c *snapshotCache) PutWarm(snap *d2m.WarmSnapshot) {
	size := snap.SizeBytes()
	if size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[snap.Key()]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.byKey[snap.Key()] = c.order.PushFront(snap)
	c.bytes += size
	c.metrics.SnapshotCaptures.Add(1)
	for c.bytes > c.budget {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		old := oldest.Value.(*d2m.WarmSnapshot)
		delete(c.byKey, old.Key())
		c.bytes -= old.SizeBytes()
		c.metrics.SnapshotEvictions.Add(1)
	}
	c.metrics.SnapshotBytes.Store(c.bytes)
	c.metrics.SnapshotEntries.Store(int64(c.order.Len()))
}
