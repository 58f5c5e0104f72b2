// Package shard provides the concurrency layer over package core: a
// sharded HIGGS summary that hash-partitions the graph stream by source
// vertex across N independent core summaries, each behind its own
// read-write lock. Ingest parallelizes across shards (writers to distinct
// shards never contend) and temporal range queries fan out and merge, per
// query.DoBatchWith.
//
// Partitioning by source vertex makes edge and vertex-out queries
// single-shard lookups: every edge s→d lives in the shard of s, so all of a
// vertex's outgoing edges share a shard. Vertex-in queries fan out to every
// shard (a vertex's incoming edges are scattered by their sources); path
// and subgraph queries decompose into per-shard edge groups. Every merged
// result is a sum of per-shard one-sided estimates, so the
// never-underestimate guarantee of package core carries over unchanged
// (DESIGN.md §8).
//
// A shard.Summary with Shards = 1 behaves exactly like a mutex-wrapped
// core.Summary and is the degenerate configuration the HTTP server used
// before sharding existed.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"higgs/internal/core"
	"higgs/internal/hashing"
	"higgs/internal/query"
	"higgs/internal/stream"
)

// MaxShards bounds Config.Shards; beyond a few hundred shards the per-query
// fan-out cost dominates any ingest win.
const MaxShards = 4096

// partitionSeedMix decorrelates the partitioning hash from the in-matrix
// vertex hash: both derive from Config.Core.Seed, but a shard boundary must
// not align with fingerprint or address bits.
const partitionSeedMix = 0x632be59bd9b4e019

// Config parameterizes a sharded summary.
type Config struct {
	// Shards is the number of partitions (1..MaxShards). More shards buy
	// ingest and query parallelism at a small space cost: each shard grows
	// its own tree, so trailing partially-filled leaves multiply by N.
	Shards int
	// Core is the configuration every shard's core.Summary is built with.
	Core core.Config
}

// DefaultConfig returns a 4-way sharded version of the paper's recommended
// configuration. Four shards saturate typical small servers; callers
// scaling further should set Shards near the machine's core count.
func DefaultConfig() Config {
	return Config{Shards: 4, Core: core.DefaultConfig()}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.Shards < 1 || c.Shards > MaxShards {
		return fmt.Errorf("shard: Shards = %d, need 1..%d", c.Shards, MaxShards)
	}
	return c.Core.Validate()
}

// slot pairs one core summary with its lock. Every answer-changing write
// takes the write lock in mutate and nowhere else; queries take the read
// lock (core queries are mutually concurrency-safe but must not run during
// mutation).
type slot struct {
	mu  sync.RWMutex
	sum *core.Summary
	// seq is the shard's durability watermark: the highest write-ahead-log
	// sequence number applied to this shard (0 when the shard has never
	// seen WAL-sequenced edges). It advances under mu together with the
	// apply (mutate), so a snapshot frame — serialized under the same lock
	// — always pairs the shard's contents with the exact watermark
	// splitting "already in the snapshot" from "replay me" (DESIGN.md §12).
	seq uint64
	// ver is the shard's mutation version: a counter mutate bumps, before
	// it unlocks, for every op that may change query answers — including
	// the non-durable seq-0 paths that leave the durability watermark
	// alone. It is the read cache's invalidation token (DESIGN.md §16):
	// because it only ever advances, and only under mu, two equal reads of
	// ver bracket a window in which no mutation completed, so any probe
	// result obtained inside that window is exactly the state at that
	// version. Read with atomic.Load so cache hits need no lock at all.
	ver atomic.Uint64
	// frontier and rewrites split ver by what a mutation can reach, so the
	// read cache can keep answers about the past across appends (DESIGN.md
	// §16). frontier is sum.Frontier(), the newest timestamp the shard has
	// accepted: core.Insert clamps older items up to it, so an insert changes
	// no answer over a window that ends before it. rewrites counts the ops
	// that can change such a window anyway — a delete that found its entry, a
	// reclaiming expire, Finalize. Like ver, both are stored by mutate
	// before it unlocks and by newSlot, nowhere else (lock_test.go holds that).
	frontier atomic.Int64
	rewrites atomic.Uint64
	// one is Insert's single-edge batch. The ApplyObserver takes a slice,
	// and a slice of the caller's stack would escape to the heap on every
	// Insert; this one is written and read under mu only.
	one [1]stream.Edge
}

// newSlot wraps a core summary — empty or decoded — at durability
// watermark seq, publishing the frontier its contents already have.
func newSlot(sum *core.Summary, seq uint64) *slot {
	sl := &slot{sum: sum, seq: seq}
	sl.frontier.Store(sum.Frontier())
	return sl
}

// ApplyObserver is notified of every batch of edges applied to a shard,
// from inside the same write-lock section that bumps the shard's mutation
// version (DESIGN.md §17): by the time any reader can observe
// ShardVersion(i) advanced past a batch, the observer has already seen it.
// Because every insert path in this repository — async group commits, WAL
// replay, follower replication — is a wrapper over mutate, one observer
// covers them all without a new write path. The callback runs under the
// shard's write lock: it must be fast, must not call back into the
// Summary, and must not retain the edge slice past the call.
type ApplyObserver interface {
	// ObserveApply sees every batch of edges applied to shard i.
	ObserveApply(shard int, edges []stream.Edge)
}

// Summary is a sharded HIGGS graph stream summary. It is safe for
// concurrent use by multiple goroutines: mutations serialize per shard,
// queries run concurrently with each other and with mutations on other
// shards.
type Summary struct {
	cfg   Config
	part  hashing.Hasher // partitioning hash, decorrelated from core's
	slots []*slot

	// obs is the registered ApplyObserver (nil when none). An atomic
	// pointer so registration needs no lock; mutate loads it once inside
	// its write-lock section.
	obs atomic.Pointer[ApplyObserver]

	// walOwned, once set (MarkWALOwned), marks the summary's durable state
	// as owned by a write-ahead log: direct Expire and Delete calls panic,
	// because crash recovery would undo an unlogged one.
	walOwned atomic.Bool
}

// SetApplyObserver registers obs to see every subsequent applied batch
// (nil unregisters). Register before feeding the summary —
// mutations applied earlier are not replayed into the observer.
func (s *Summary) SetApplyObserver(obs ApplyObserver) {
	if obs == nil {
		s.obs.Store(nil)
		return
	}
	s.obs.Store(&obs)
}

// New returns an empty sharded summary for the given configuration.
func New(cfg Config) (*Summary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	slots := make([]*slot, cfg.Shards)
	for i := range slots {
		cs, err := core.New(cfg.Core)
		if err != nil {
			return nil, err
		}
		slots[i] = newSlot(cs, 0)
	}
	return assemble(cfg, slots), nil
}

// assemble builds the summary of cfg over slots, partitioned by the hasher
// cfg derives.
func assemble(cfg Config, slots []*slot) *Summary {
	return &Summary{
		cfg:   cfg,
		part:  hashing.NewHasher(cfg.Core.Seed ^ partitionSeedMix),
		slots: slots,
	}
}

// Config returns the summary's configuration.
func (s *Summary) Config() Config { return s.cfg }

// NumShards returns the number of partitions.
func (s *Summary) NumShards() int { return len(s.slots) }

// Name identifies the structure in benchmark output.
func (s *Summary) Name() string { return fmt.Sprintf("HIGGS×%d", len(s.slots)) }

// ShardFor returns the index of the shard owning edges whose source vertex
// is v. It is deterministic for a given Config.Core.Seed, so two summaries
// built with the same seed partition identically.
func (s *Summary) ShardFor(v uint64) int {
	return int(s.part.Hash(v) % uint64(len(s.slots)))
}

// opKind names the answer-changing operations mutate can run on a shard.
type opKind uint8

const (
	opInsert    opKind = iota // apply op.edges in order
	opInsertOne               // apply op.edge (Insert's single-edge form of opInsert)
	opDelete                  // remove op.edge if present
	opExpire                  // drop subtrees wholly before op.cutoff
	opFinalize                // seal estimator state at end of stream
)

// op is one operation for mutate, as plain data rather than a closure so
// the per-batch hot path (InsertShardAt) allocates nothing.
type op struct {
	kind   opKind
	edges  []stream.Edge
	edge   stream.Edge
	cutoff int64
}

// mutate is the write path: the only place an answer-changing write lock
// is taken (lock_test.go holds that), and every public mutator is a
// wrapper over it. Under shard i's lock it runs o against the core
// summary, advances the durability watermark to max(watermark, seq) — seq
// 0, the non-durable paths, leaves it alone — and, iff the op changed what
// queries may answer, publishes what the op could reach — an insert
// notifies the ApplyObserver and publishes the shard's new append frontier,
// anything else one more rewrite — and then bumps the mutation version, all
// before unlocking. So "version advanced past an insert ⇒ observer
// notified" (DESIGN.md §16–§17) and "contents ⇔ watermark" (DESIGN.md §12)
// hold by construction.
//
// It returns the op's extent — edges applied, 1 for a delete that found
// its entry, leaves reclaimed, 1 for Finalize — and the op
// changed answers exactly when that is positive: an empty batch, a missed
// delete and a vacuous expire leave the version (and so every read cache)
// alone.
func (s *Summary) mutate(i int, seq uint64, o op) (n int64) {
	sl := s.slots[i]
	sl.mu.Lock()
	switch o.kind {
	case opInsertOne:
		sl.one[0] = o.edge
		o.kind, o.edges = opInsert, sl.one[:]
		fallthrough
	case opInsert:
		for _, e := range o.edges {
			sl.sum.Insert(e)
		}
		n = int64(len(o.edges))
	case opDelete:
		if sl.sum.Delete(o.edge) {
			n = 1
		}
	case opExpire:
		n = int64(sl.sum.Expire(o.cutoff))
	case opFinalize:
		sl.sum.Finalize()
		n = 1
	}
	if seq > sl.seq {
		sl.seq = seq
	}
	if n > 0 {
		if o.kind == opInsert {
			if obs := s.obs.Load(); obs != nil {
				(*obs).ObserveApply(i, o.edges)
			}
			sl.frontier.Store(sl.sum.Frontier())
		} else {
			sl.rewrites.Add(1)
		}
		sl.ver.Add(1)
	}
	sl.mu.Unlock()
	return n
}

// Insert adds one stream item to the shard of its source vertex.
// Timestamps must be non-decreasing per shard; since each shard receives a
// subsequence of the stream, any globally time-ordered stream satisfies
// this (out-of-order items are clamped per shard, see core.Summary).
func (s *Summary) Insert(e stream.Edge) {
	s.mutate(s.ShardFor(e.S), 0, op{kind: opInsertOne, edge: e})
}

// InsertBatch adds a batch of stream items, grouping them by shard so each
// shard's lock is taken once per batch rather than once per edge. Relative
// order within a shard is preserved.
func (s *Summary) InsertBatch(edges []stream.Edge) {
	if len(s.slots) == 1 {
		s.InsertShardAt(0, edges, 0)
		return
	}
	groups := make(map[int][]stream.Edge)
	for _, e := range edges {
		i := s.ShardFor(e.S)
		groups[i] = append(groups[i], e)
	}
	for i, g := range groups {
		s.InsertShardAt(i, g, 0)
	}
}

// InsertShardAt applies a batch of stream items that all belong to shard i
// under a single write-lock acquisition — the group-commit primitive
// internal/ingest builds on (DESIGN.md §9) — and advances the shard's
// durability watermark to seq, the highest write-ahead-log sequence number
// in the batch, under the same acquisition. Every edge must satisfy
// ShardFor(e.S) == i; routing an edge to the wrong shard silently corrupts
// query results, so only callers that partition with ShardFor (as
// InsertBatch and the ingest pipeline do) may use this. Callers must apply
// each shard's edges in ascending sequence order (the WAL's deliver
// callback guarantees admission order is sequence order); seq 0 leaves the
// watermark untouched, which is how the non-durable paths behave.
func (s *Summary) InsertShardAt(i int, edges []stream.Edge, seq uint64) {
	s.mutate(i, seq, op{kind: opInsert, edges: edges})
}

// ShardSeq returns shard i's durability watermark: every WAL-sequenced
// edge owned by the shard with sequence number ≤ ShardSeq(i) has been
// applied. Recovery uses it to skip replaying edges a snapshot already
// contains.
func (s *Summary) ShardSeq(i int) uint64 {
	sl := s.slots[i]
	sl.mu.RLock()
	defer sl.mu.RUnlock()
	return sl.seq
}

// ShardVersion returns shard i's mutation version without taking any lock.
// The version advances (inside the write-lock section, before the lock is
// released) on every applied mutation that may change a query answer:
// inserts — WAL-sequenced or not — deletes that found their entry, expires
// that reclaimed at least one leaf, and Finalize. Unlike ShardSeq it
// therefore also moves for writes the durability watermark ignores, which
// is what makes it an exact invalidation token for read caches: a probe
// result obtained between two equal ShardVersion reads is exactly the
// shard's state at that version, and the counter never repeats a value
// (DESIGN.md §16). Stats does not advance it — on-demand sealing is
// answer-neutral, so monitoring traffic must not invalidate caches.
func (s *Summary) ShardVersion(i int) uint64 {
	return s.slots[i].ver.Load()
}

// ShardFrontier returns shard i's append frontier and rewrite count without
// taking any lock. The frontier is the newest timestamp the shard has
// accepted (math.MinInt64 while it is empty); every later insert lands at or
// after it, so the answer over a window with te < frontier changes only when
// the rewrite count does — on a delete that found its entry, an expire that
// reclaimed a leaf, or Finalize. Both are published inside the
// write-lock section, before the version bump: a reader that loads them
// before a probe it fences with two equal ShardVersion reads holds a pair
// at most as new as that version, and an older pair only errs towards not
// freezing (DESIGN.md §16).
func (s *Summary) ShardFrontier(i int) (frontier int64, rewrites uint64) {
	sl := s.slots[i]
	return sl.frontier.Load(), sl.rewrites.Load()
}

// Delete removes one previously inserted item from the shard of its source
// vertex, reporting whether a matching entry was found. Like Expire it
// leaves the durability watermark alone and so trips the WAL-ownership
// guard; on a summary a WAL-backed pipeline feeds, use the pipeline's
// Delete.
func (s *Summary) Delete(e stream.Edge) bool {
	return s.DeleteAt(e, 0)
}

// DeleteAt is Delete at write-ahead-log sequence number seq: the owning
// shard's watermark advances to seq under the same lock acquisition that
// removes the entry, exactly as ExpireAt sits beside Expire.
func (s *Summary) DeleteAt(e stream.Edge, seq uint64) bool {
	s.checkUnlogged(seq)
	return s.mutate(s.ShardFor(e.S), seq, op{kind: opDelete, edge: e}) > 0
}

// ProbeShard evaluates every probe against shard i under a single
// read-lock acquisition — the primitive the batch query executor
// (internal/query, DESIGN.md §11) builds on. Callers other than package
// query should prefer Do / DoBatch, which plan probes with ShardFor;
// probing a shard that does not own a probe's source vertex returns that
// shard's (typically zero) partial estimate, not the query's answer.
func (s *Summary) ProbeShard(i int, probes []query.Probe, out []int64) {
	sl := s.slots[i]
	sl.mu.RLock()
	defer sl.mu.RUnlock()
	for j, p := range probes {
		switch p.Op {
		case query.OpEdge:
			out[j] = sl.sum.EdgeWeight(p.S, p.D, p.Ts, p.Te)
		case query.OpVertexOut:
			out[j] = sl.sum.VertexOut(p.S, p.Ts, p.Te)
		case query.OpVertexIn:
			out[j] = sl.sum.VertexIn(p.S, p.Ts, p.Te)
		}
	}
}

// Do answers one temporal query; the Result carries the estimated weight
// or the query's validation error. Single-shard kinds (edge, vertex-out)
// lock only the shard that owns them; fan-out kinds (vertex-in, path,
// subgraph) visit each involved shard once, per query.DoBatchWith.
func (s *Summary) Do(q query.Query) query.Result { return query.Do(s, q) }

// DoBatch answers a batch of temporal queries with at most one read-lock
// acquisition per shard per batch: all constituent per-shard probes are
// grouped by shard and each shard's group is evaluated under a single
// RLock, per query.DoBatchWith. Results align with the input, and every
// merged weight is the same sum of per-shard one-sided estimates the
// per-kind methods produce — batching changes locking, not answers.
func (s *Summary) DoBatch(qs []query.Query) []query.Result { return query.DoBatch(s, qs) }

// weightOf adapts Do to the per-kind method signatures, which predate
// Result: shapes that cannot be answered (inverted windows, paths shorter
// than one edge, empty subgraphs) answer zero, as they always have.
func (s *Summary) weightOf(q query.Query) int64 {
	r := query.Do(s, q)
	if r.Err != nil {
		return 0
	}
	return r.Weight
}

// EdgeWeight estimates the aggregated weight of edge (sv → dv) in [ts, te].
// The edge lives only in sv's shard, so this is a single-shard lookup. It
// is a thin wrapper over Do.
func (s *Summary) EdgeWeight(sv, dv uint64, ts, te int64) int64 {
	return s.weightOf(query.NewEdge(sv, dv, ts, te))
}

// VertexOut estimates the aggregated weight of v's outgoing edges in
// [ts, te]. All outgoing edges of v share v's shard: single-shard lookup.
// It is a thin wrapper over Do.
func (s *Summary) VertexOut(v uint64, ts, te int64) int64 {
	return s.weightOf(query.NewVertexOut(v, ts, te))
}

// VertexIn estimates the aggregated weight of v's incoming edges in
// [ts, te]. Incoming edges are partitioned by their sources, so the query
// fans out to every shard and sums — each term is a one-sided estimate of
// that shard's true contribution, so the sum never undercounts. It is a
// thin wrapper over Do.
func (s *Summary) VertexIn(v uint64, ts, te int64) int64 {
	return s.weightOf(query.NewVertexIn(v, ts, te))
}

// PathWeight estimates the sum of edge weights along the vertex path in
// [ts, te], decomposed into per-shard edge groups. It is a thin wrapper
// over Do.
func (s *Summary) PathWeight(path []uint64, ts, te int64) int64 {
	return s.weightOf(query.NewPath(path, ts, te))
}

// SubgraphWeight estimates the total weight of the given edge set in
// [ts, te]. Edges are grouped by the shard of their source vertex; each
// group is evaluated under a single read lock. It is a thin wrapper over
// Do.
func (s *Summary) SubgraphWeight(edges [][2]uint64, ts, te int64) int64 {
	return s.weightOf(query.NewSubgraph(edges, ts, te))
}

// Expire drops every subtree whose entire time range lies before the
// cutoff, shard by shard, each under its shard's write lock, and returns
// the total number of leaves reclaimed; see core.Summary.Expire for the
// window semantics. Shards expire concurrently with each other, and —
// unlike core.Expire, which must not race anything — queries and inserts
// simply serialize behind each shard's lock, so a live sharded deployment
// can expire periodically without pausing service.
//
// Expire leaves the durability watermarks untouched and therefore must
// not be called on a summary owned by a WAL-backed ingest pipeline: an
// unlogged expire would be silently undone by crash recovery (the replay
// re-inserts every expired edge). MarkWALOwned arms a guard that turns
// such a call into a panic; route retention through the pipeline's Expire
// instead, which sequences and logs it (DESIGN.md §13).
func (s *Summary) Expire(cutoff int64) int64 {
	return s.ExpireAt(cutoff, 0)
}

// MarkWALOwned arms the guard that makes direct Expire and Delete calls
// panic: the summary's durable state is owned by a write-ahead log, so
// every expire and delete must be sequenced and logged by the ingest
// pipeline. It is called by ingest.New when the pipeline is WAL-backed and
// is never unset.
func (s *Summary) MarkWALOwned() { s.walOwned.Store(true) }

// ExpireAt expires every shard concurrently (each under its write lock)
// and advances each shard's durability watermark to seq — the expire's
// write-ahead-log sequence number — making it the expire-shaped sibling of
// InsertShardAt: the snapshot codec captures (contents, watermark) under
// one lock acquisition, so a snapshot taken after an expire can never
// replay it twice. seq 0 is the non-durable path (watermarks untouched)
// and trips the WAL-ownership guard, exactly like Expire. Callers
// sequencing against a WAL must order ExpireAt between the applies of
// lower and higher sequence numbers, exactly as InsertShardAt.
func (s *Summary) ExpireAt(cutoff int64, seq uint64) int64 {
	// ExpireShardAt checks too, but on eachShard's goroutines, where a
	// panic kills the process instead of reaching the caller.
	s.checkUnlogged(seq)
	var dropped atomic.Int64
	s.eachShard(func(i int) { dropped.Add(s.ExpireShardAt(i, cutoff, seq)) })
	return dropped.Load()
}

// ExpireShardAt expires shard i under a single write-lock acquisition,
// advancing its durability watermark to seq (0 is unlogged and trips the
// WAL-ownership guard), and returns the number of leaves reclaimed.
// Recovery replays expire records with it shard by shard, skipping shards
// whose watermark already covers the record.
func (s *Summary) ExpireShardAt(i int, cutoff int64, seq uint64) int64 {
	s.checkUnlogged(seq)
	return s.mutate(i, seq, op{kind: opExpire, cutoff: cutoff})
}

// checkUnlogged panics on any unlogged (seq 0) expire or delete of a
// WAL-owned summary, whichever entry point it arrives through: applied in
// memory with no record and no watermark advance, it would be silently
// undone by the next crash recovery, resurrecting what it removed.
func (s *Summary) checkUnlogged(seq uint64) {
	if seq == 0 && s.walOwned.Load() {
		panic("shard: unlogged expire or delete on a WAL-owned summary would be undone by crash recovery; use the ingest pipeline's Expire / Delete")
	}
}

// Finalize marks the end of the stream on every shard concurrently; see
// core.Summary.Finalize. Finalize is idempotent.
func (s *Summary) Finalize() {
	s.eachShard(func(i int) { s.mutate(i, 0, op{kind: opFinalize}) })
}

// eachShard runs f on every shard index concurrently and waits.
func (s *Summary) eachShard(f func(i int)) {
	if len(s.slots) == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(s.slots))
	for i := range s.slots {
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// Stats reports aggregate and per-shard structural statistics.
type Stats struct {
	Shards   int          // number of partitions
	Total    core.Stats   // summed across shards (Layers is the maximum)
	PerShard []core.Stats // one entry per shard, in shard order
}

// Stats gathers statistics from every shard concurrently. Per-shard
// figures follow core.Summary.Stats; Total sums them, except Layers (the
// maximum tree height) and AvgLeafUtil (leaf-weighted mean).
func (s *Summary) Stats() Stats {
	st := Stats{Shards: len(s.slots), PerShard: make([]core.Stats, len(s.slots))}
	s.eachShard(func(i int) {
		// Stats seals closed nodes on demand: a mutation of the tree, so the
		// write lock — but an answer-neutral one, so not through mutate:
		// monitoring traffic must not bump versions and invalidate caches.
		sl := s.slots[i]
		sl.mu.Lock()
		st.PerShard[i] = sl.sum.Stats()
		sl.mu.Unlock()
	})
	var utilWeighted float64
	for _, ps := range st.PerShard {
		st.Total.Items += ps.Items
		st.Total.Clamped += ps.Clamped
		st.Total.Rejected += ps.Rejected
		st.Total.Leaves += ps.Leaves
		st.Total.Nodes += ps.Nodes
		st.Total.OverflowBlocks += ps.OverflowBlocks
		st.Total.SealedMatrices += ps.SealedMatrices
		st.Total.SpillEntries += ps.SpillEntries
		st.Total.SpaceBytes += ps.SpaceBytes
		st.Total.HeapBytes += ps.HeapBytes
		if ps.Layers > st.Total.Layers {
			st.Total.Layers = ps.Layers
		}
		utilWeighted += ps.AvgLeafUtil * float64(ps.Leaves)
	}
	if st.Total.Leaves > 0 {
		st.Total.AvgLeafUtil = utilWeighted / float64(st.Total.Leaves)
	}
	return st
}

// Items returns the number of accepted stream items across all shards.
func (s *Summary) Items() int64 {
	var n int64
	for _, sl := range s.slots {
		sl.mu.RLock()
		n += sl.sum.Items()
		sl.mu.RUnlock()
	}
	return n
}

// SpaceBytes returns the packed structural size across all shards
// (DESIGN.md §7).
func (s *Summary) SpaceBytes() int64 { return s.Stats().Total.SpaceBytes }
