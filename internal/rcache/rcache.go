// Package rcache is a watermark-invalidated read cache on the
// query.Prober seam: it wraps a sharded summary and memoizes single-shard
// probe results keyed by (shard, probe, shard mutation version). The
// mutation version (shard.ShardVersion) advances under the shard's write
// lock on every applied mutation, so a cached value whose version equals
// the shard's current version is provably identical to what an uncached
// probe would return — no TTLs, no staleness window beyond what any
// concurrent uncached read already has (DESIGN.md §16).
//
// Appends do not reach the past: a probe whose window ended before the
// shard's append frontier when it was filled is frozen, and outlives every
// later insert — it dies only with the shard's rewrite count (delete,
// expire, finalize). A summary that is written all the time still serves
// questions about closed windows from the cache.
//
// The cache itself implements query.Prober, so the existing planner
// (query.Do / query.DoBatch) runs unchanged on top of it: the batch
// planner still groups probes by shard, and the cache intercepts each
// per-shard group. A group whose probes all hit is answered without
// touching the backend at all — zero shard read-lock acquisitions,
// strengthening the planner's ≤1-lock-per-shard-per-batch invariant to 0
// for hot shards. Misses fall through in a single backend ProbeShard call
// (the planner's existing one lock acquisition) and fill the cache only
// when the shard's version is unchanged across the probe — the
// version-fence that makes a fill attributable to an exact version.
//
// Caching is probe-grained rather than query-grained: an edge query, the
// constituent edges of path and subgraph queries, and repeated vertex
// fan-outs all share entries, which is the canonical-key property the
// planner's probe decomposition provides for free.
package rcache

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"higgs/internal/query"
)

// Backend is what the cache wraps: the sharded read surface plus the
// per-shard invalidation tokens. *shard.Summary implements it. ProbeShard
// must not retain probes or out: the cache hands it pooled scratch.
type Backend interface {
	query.Prober
	// ShardVersion returns shard i's current mutation version without
	// locking. It must advance (monotonically, before the write lock is
	// released) on every mutation that may change a probe result.
	ShardVersion(i int) uint64
	// ShardFrontier returns, without locking, shard i's append frontier —
	// no later insert lands before it — and its rewrite count, which must
	// advance on every mutation other than an insert that may change a
	// probe result. Like the version, both must be published before the
	// write lock is released.
	ShardFrontier(i int) (frontier int64, rewrites uint64)
}

// entryBytes is the accounting cost of one cache entry: the entry struct
// (key copy, value, version, LRU links) plus amortized map bucket and
// pointer overhead. An estimate — the budget bounds memory, it does not
// meter it exactly.
const entryBytes = 120

// MinBytes is the smallest accepted byte budget: below one entry per
// shard the cache could never hit and the configuration is almost
// certainly a mistake.
const MinBytes = 64 << 10

// Config parameterizes a cache.
type Config struct {
	// MaxBytes is the total byte budget across all cache shards. Each of
	// the backend's shards gets an equal slice, evicted LRU-first.
	MaxBytes int64
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.MaxBytes < MinBytes {
		return fmt.Errorf("rcache: MaxBytes = %d, need >= %d", c.MaxBytes, MinBytes)
	}
	return nil
}

// key identifies one single-shard probe. Probes are value types with no
// indirection, so the comparable struct is the canonical query key: two
// queries that decompose into the same probe share the entry regardless of
// which kind (edge, path constituent, subgraph constituent) produced it.
type key struct {
	op     query.Op
	s, d   uint64
	ts, te int64
}

// entry is one cached probe result, valid while its shard's mutation
// version still equals ver or, frozen, while the shard's rewrite count
// still equals rw. Entries are intrusive LRU list nodes.
type entry struct {
	k          key
	val        int64
	ver        uint64
	rw         uint64 // rewrite count a frozen entry was filled at; notFrozen otherwise
	prev, next *entry
}

// notFrozen is entry.rw of an entry whose window reached the append
// frontier: no rewrite count gets there, so only the version rule serves it.
const notFrozen = ^uint64(0)

// cacheShard is the cache partition mirroring one backend shard. Its
// mutex guards only the map and LRU list — never held across backend
// calls, so cache maintenance cannot extend any shard read-lock hold.
type cacheShard struct {
	mu      sync.Mutex
	entries map[key]*entry
	head    entry // sentinel: head.next is most recent, head.prev least
	budget  int64
	bytes   atomic.Int64
	count   atomic.Int64
}

func (cs *cacheShard) init(budget int64) {
	cs.entries = make(map[key]*entry)
	cs.head.next = &cs.head
	cs.head.prev = &cs.head
	cs.budget = budget
}

// moveFront makes e the most recently used entry. Caller holds cs.mu.
func (cs *cacheShard) moveFront(e *entry) {
	if cs.head.next == e {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	e.next = cs.head.next
	e.prev = &cs.head
	cs.head.next.prev = e
	cs.head.next = e
}

// remove unlinks and deletes e. Caller holds cs.mu.
func (cs *cacheShard) remove(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	delete(cs.entries, e.k)
	cs.bytes.Add(-entryBytes)
	cs.count.Add(-1)
}

// Stats is a point-in-time counter snapshot for /healthz.
type Stats struct {
	Hits       uint64 `json:"hits"`        // probes answered from the cache
	FrozenHits uint64 `json:"frozen_hits"` // the Hits that outlived a write: frozen entries served past their fill version
	Misses     uint64 `json:"misses"`      // probes that fell through to the backend
	Evictions  uint64 `json:"evictions"`   // entries displaced by budget pressure or staleness
	Entries    int64  `json:"entries"`     // live entries right now
	Bytes      int64  `json:"bytes"`       // accounted bytes right now
	MaxBytes   int64  `json:"max_bytes"`   // configured budget
}

// Cache memoizes probe results over a Backend. It is safe for concurrent
// use; its zero value is not usable — construct with New.
type Cache struct {
	b      Backend
	shards []cacheShard

	hits       atomic.Uint64
	frozenHits atomic.Uint64
	misses     atomic.Uint64
	evictions  atomic.Uint64
}

// missSet is ProbeShard's scratch for one group's misses: the probes the
// backend must evaluate, where each answer goes in the caller's out, and
// the backend's answers. Pooled, so a miss allocates nothing for it.
type missSet struct {
	probes []query.Probe
	idx    []int
	vals   []int64
}

var missPool = sync.Pool{New: func() any { return new(missSet) }}

// New builds a cache over b. The byte budget is split evenly across b's
// shards; a budget slice always admits at least one entry, so even
// MaxBytes/shards < entryBytes degrades to a 1-entry-per-shard cache
// rather than one that silently never fills.
func New(b Backend, cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := b.NumShards()
	c := &Cache{b: b, shards: make([]cacheShard, n)}
	budget := cfg.MaxBytes / int64(n)
	if budget < entryBytes {
		budget = entryBytes
	}
	for i := range c.shards {
		c.shards[i].init(budget)
	}
	return c, nil
}

// NumShards implements query.Prober by delegation.
func (c *Cache) NumShards() int { return c.b.NumShards() }

// ShardFor implements query.Prober by delegation.
func (c *Cache) ShardFor(v uint64) int { return c.b.ShardFor(v) }

// ProbeShard answers one planned per-shard probe group, serving hits from
// the cache and evaluating only the missing probes against the backend.
//
// Protocol (the version fence):
//
//  1. frontier, rw ← backend.ShardFrontier(i), then ver ←
//     backend.ShardVersion(i) — three atomic loads, no lock, all before
//     the probe. A writer publishes all three before it unlocks, so once
//     the fence of step 5 holds, frontier and rw are at most as new as the
//     state ver names; older only errs towards not freezing.
//  2. Under the cache shard's own mutex, look every probe up; an entry is a
//     hit if entry.ver == ver, or if it is frozen and entry.rw == rw. A
//     stale entry stays where it is: the refill of step 5 overwrites it.
//  3. If nothing missed, return: the backend was never touched, so a
//     full-hit group costs zero shard read locks.
//  4. Otherwise evaluate the misses with one backend.ProbeShard call —
//     exactly the single lock acquisition the planner already budgeted.
//  5. Fill the cache with the miss results only if ShardVersion(i) still
//     equals ver. Equal reads bracket a window in which no mutation
//     completed (the version is bumped before the write lock is
//     released), so the probed values are exactly the shard's state at
//     version ver; if the version moved, the results are still returned —
//     they are a legal concurrent read — but must not be memoized,
//     because they cannot be attributed to a single version. A filled
//     entry whose window ends before frontier (te < frontier, strictly) is
//     frozen at rw: every later insert lands at T ≥ frontier > te, outside
//     the window, so the value stands until the rewrite count moves.
//
// Monotonicity of the version and the rewrite count rules out ABA: a
// re-observed value implies no such mutation, not a changed-and-restored
// counter.
func (c *Cache) ProbeShard(i int, probes []query.Probe, out []int64) {
	cs := &c.shards[i]
	frontier, rw := c.b.ShardFrontier(i)
	ver := c.b.ShardVersion(i)

	var m *missSet
	var frozenHits uint64
	cs.mu.Lock()
	for j, p := range probes {
		k := key{op: p.Op, s: p.S, d: p.D, ts: p.Ts, te: p.Te}
		if e, ok := cs.entries[k]; ok && (e.ver == ver || e.rw == rw) {
			if e.ver != ver {
				frozenHits++
			}
			out[j] = e.val
			cs.moveFront(e)
			continue
		}
		if m == nil {
			m = missPool.Get().(*missSet)
			m.probes, m.idx = m.probes[:0], m.idx[:0]
		}
		m.probes = append(m.probes, p)
		m.idx = append(m.idx, j)
	}
	cs.mu.Unlock()

	if frozenHits > 0 {
		c.frozenHits.Add(frozenHits)
	}
	if m == nil {
		c.hits.Add(uint64(len(probes)))
		return
	}
	defer missPool.Put(m)
	c.hits.Add(uint64(len(probes) - len(m.probes)))
	c.misses.Add(uint64(len(m.probes)))

	m.vals = slices.Grow(m.vals[:0], len(m.probes))[:len(m.probes)]
	c.b.ProbeShard(i, m.probes, m.vals)
	for j, idx := range m.idx {
		out[idx] = m.vals[j]
	}
	if c.b.ShardVersion(i) != ver {
		return // concurrent write: results are valid to serve, unsafe to memoize
	}

	cs.mu.Lock()
	for j, p := range m.probes {
		k := key{op: p.Op, s: p.S, d: p.D, ts: p.Ts, te: p.Te}
		e, ok := cs.entries[k]
		if ok {
			// Either the stale entry step 2 left in place — the refill
			// displaces it without a map delete, an allocation and a second
			// insert — or a concurrent filler's, fenced on the same version,
			// so the values agree.
			if e.ver != ver {
				c.evictions.Add(1)
			}
			cs.moveFront(e)
		} else {
			if cs.bytes.Load()+entryBytes > cs.budget {
				// At budget: the least recently used entry leaves and its
				// node holds the miss. A budget admits at least one entry,
				// so there is one to evict.
				e = cs.head.prev
				cs.remove(e)
				c.evictions.Add(1)
				*e = entry{k: k}
			} else {
				e = &entry{k: k}
			}
			cs.entries[k] = e
			e.next = cs.head.next
			e.prev = &cs.head
			cs.head.next.prev = e
			cs.head.next = e
			cs.bytes.Add(entryBytes)
			cs.count.Add(1)
		}
		e.val, e.ver, e.rw = m.vals[j], ver, notFrozen
		if p.Te < frontier {
			e.rw = rw
		}
	}
	cs.mu.Unlock()
}

// Do answers one query through the cache — the same planner Sharded.Do
// runs, with the cache as the prober.
func (c *Cache) Do(q query.Query) query.Result { return query.Do(c, q) }

// DoBatch answers a batch through the cache: per-shard probe groups whose
// probes all hit never touch the backend, so a hot batch costs zero shard
// read-lock acquisitions.
func (c *Cache) DoBatch(qs []query.Query) []query.Result { return query.DoBatch(c, qs) }

// Stats returns a point-in-time snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:       c.hits.Load(),
		FrozenHits: c.frozenHits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
	}
	for i := range c.shards {
		st.Entries += c.shards[i].count.Load()
		st.Bytes += c.shards[i].bytes.Load()
		st.MaxBytes += c.shards[i].budget
	}
	return st
}
