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
//
// Each cache shard is one flat, pointer-free, set-associative table: a
// probe's key hashes to one set of 8 ways, a hit needs the way's tag and
// then the full key to match, and a miss that finds neither its key nor an
// empty way takes the least recently used way of its set. Eviction is
// therefore per set, not per shard, and a miss costs one hash and two
// bounded scans of its set, and allocates nothing.
package rcache

import (
	"fmt"
	"math/bits"
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

// entryBytes is the accounting cost of one cache entry, which sizes a
// shard's table: the table itself spends 72 bytes an entry (the 64-byte
// entry and its eighth of the set's line). The budget bounds memory, it
// does not meter it exactly.
const entryBytes = 120

// ways is the table's associativity: a key lives in one of the ways of
// exactly one set.
const ways = 8

// MinBytes is the smallest accepted byte budget: below one entry per
// shard the cache could never hit and the configuration is almost
// certainly a mistake.
const MinBytes = 64 << 10

// Config parameterizes a cache.
type Config struct {
	// MaxBytes is the total byte budget across all cache shards. Each of
	// the backend's shards gets an equal slice, held as sets of 8 ways; a
	// full set evicts its least recently used way.
	MaxBytes int64
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.MaxBytes < MinBytes {
		return fmt.Errorf("rcache: MaxBytes = %d, need >= %d", c.MaxBytes, MinBytes)
	}
	return nil
}

// entry is one cached probe result, valid while its shard's mutation
// version still equals ver or, frozen, while the shard's rewrite count
// still equals rw. 64 bytes: one cache line. The probe itself is the key:
// a value type with no indirection, so two queries that decompose into the
// same probe share the entry regardless of which kind (edge, path
// constituent, subgraph constituent) produced it.
type entry struct {
	k   query.Probe
	val int64
	ver uint64
	rw  uint64 // rewrite count a frozen entry was filled at; notFrozen otherwise
}

// notFrozen is entry.rw of an entry whose window reached the append
// frontier: no rewrite count gets there, so only the version rule serves it.
const notFrozen = ^uint64(0)

// set is one set's 64-byte line: each way's tag, 0 while the way is empty,
// and the shard's clock at the way's last use.
type set struct {
	tags   [ways]uint32
	stamps [ways]uint32
}

// slot is where a key lives in its shard's table: its set and its tag.
type slot struct {
	set int
	tag uint32
}

// cacheShard is the cache partition mirroring one backend shard. Its
// mutex guards only the table — never held across backend calls, so cache
// maintenance cannot extend any shard read-lock hold.
type cacheShard struct {
	mu      sync.Mutex
	sets    []set
	entries []entry // way w of set s is entries[s*nways+w]
	nways   int     // ways per set: 8, or 1 when the budget holds less than a set
	clock   uint32  // advances on every use; ages are wrapping differences from it
	budget  int64
	count   atomic.Int64 // occupied ways
}

// capacity is how many entries a shard with this byte budget holds: the
// budget's entries rounded down to whole sets, but never fewer than one.
func capacity(budget int64) int {
	return max(int(budget/entryBytes)/ways*ways, 1)
}

func (cs *cacheShard) init(budget int64) {
	n := capacity(budget)
	cs.nways = min(n, ways)
	cs.sets = make([]set, n/cs.nways)
	cs.entries = make([]entry, n)
	cs.budget = budget
}

// locate hashes k once: the multiply-shift of the hash picks k's set, and
// its low 32 bits, never 0, are k's tag.
func (cs *cacheShard) locate(k *query.Probe) slot {
	h := mix(k.S^0xa0761d6478bd642f, k.D^0xe7037ed1a0b428db^uint64(k.Op)<<56)
	h = mix(h^uint64(k.Ts)^0x8ebc6af09c88c6e3, uint64(k.Te)^0x589965cc75374cc3)
	s, _ := bits.Mul64(h, uint64(len(cs.sets)))
	return slot{set: int(s), tag: uint32(h) | 1}
}

// mix folds the 128-bit product of a and b to 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// way returns the entry in way w of set s.
func (cs *cacheShard) way(s, w int) *entry { return &cs.entries[s*cs.nways+w] }

// find returns the way of at.set that holds k, or -1. A tag only narrows
// the scan: the full key must match. Caller holds cs.mu.
func (cs *cacheShard) find(at slot, k *query.Probe) int {
	for w, tag := range cs.sets[at.set].tags[:cs.nways] {
		if tag == at.tag && cs.way(at.set, w).k == *k {
			return w
		}
	}
	return -1
}

// victim returns the way of set s that a fill takes: the first empty one,
// else the least recently used. Caller holds cs.mu.
func (cs *cacheShard) victim(s int) int {
	ln := &cs.sets[s]
	lru, oldest := 0, uint32(0)
	for w, tag := range ln.tags[:cs.nways] {
		if tag == 0 {
			return w
		}
		if age := cs.clock - ln.stamps[w]; age > oldest {
			lru, oldest = w, age
		}
	}
	return lru
}

// touch marks way w of set s as used now. Caller holds cs.mu.
func (cs *cacheShard) touch(s, w int) {
	cs.clock++
	cs.sets[s].stamps[w] = cs.clock
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
// backend must evaluate, where each answer goes in the caller's out, where
// each key lives in the table, and the backend's answers. Pooled, so a
// miss allocates nothing for it.
type missSet struct {
	probes []query.Probe
	idx    []int
	at     []slot
	vals   []int64
}

var missPool = sync.Pool{New: func() any { return new(missSet) }}

// New builds a cache over b. The byte budget is split evenly across b's
// shards, and each shard's table is allocated here, at its full capacity;
// a budget slice always admits at least one entry, so even a slice below
// one set's worth degrades to a 1-entry-per-shard cache rather than one
// that silently never fills.
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
//     Each miss keeps its set and tag, so the key is hashed once.
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
//     the window, so the value stands until the rewrite count moves. A
//     miss whose set holds neither its key nor an empty way takes the
//     set's least recently used way.
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
	for j := range probes {
		p := &probes[j]
		at := cs.locate(p)
		if w := cs.find(at, p); w >= 0 {
			if e := cs.way(at.set, w); e.ver == ver || e.rw == rw {
				if e.ver != ver {
					frozenHits++
				}
				out[j] = e.val
				cs.touch(at.set, w)
				continue
			}
		}
		if m == nil {
			m = missPool.Get().(*missSet)
			m.probes, m.idx, m.at = m.probes[:0], m.idx[:0], m.at[:0]
		}
		m.probes = append(m.probes, *p)
		m.idx = append(m.idx, j)
		m.at = append(m.at, at)
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

	var evicted uint64
	var added int64
	cs.mu.Lock()
	for j := range m.probes {
		p := &m.probes[j]
		at := m.at[j]
		w := cs.find(at, p)
		if w >= 0 {
			// Either the stale entry step 2 left in place, refilled where it
			// is, or a concurrent filler's, fenced on the same version, so
			// the values agree.
			if cs.way(at.set, w).ver != ver {
				evicted++
			}
		} else {
			w = cs.victim(at.set)
			ln := &cs.sets[at.set]
			if ln.tags[w] == 0 {
				added++
			} else {
				evicted++
			}
			ln.tags[w] = at.tag
		}
		cs.touch(at.set, w)
		e := cs.way(at.set, w)
		e.k, e.val, e.ver, e.rw = *p, m.vals[j], ver, notFrozen
		if p.Te < frontier {
			e.rw = rw
		}
	}
	cs.mu.Unlock()
	cs.count.Add(added)
	c.evictions.Add(evicted)
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
		st.MaxBytes += c.shards[i].budget
	}
	st.Bytes = st.Entries * entryBytes
	return st
}
