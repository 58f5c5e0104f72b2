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

// slot pairs one core summary with its lock. apply is the only holder of
// the write lock, taken for every answer-changing write; queries, Stats and
// the snapshot encoder take the read lock (core reads are mutually
// concurrency-safe, pending seals included, but must not run during
// mutation).
type slot struct {
	mu  sync.RWMutex
	sum *core.Summary
	// seq is the shard's durability watermark: the highest write-ahead-log
	// sequence number applied to this shard (0 when the shard has never
	// seen WAL-sequenced edges). It advances under mu together with the
	// op (Apply), so a snapshot frame — serialized under the same lock
	// — always pairs the shard's contents with the exact watermark
	// splitting "already in the snapshot" from "replay me" (DESIGN.md §12).
	seq uint64
	// ver is the shard's mutation version: a counter apply bumps, before
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
	// reclaiming expire, Finalize. Like ver, both are stored by apply
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
// replay, follower replication — is a wrapper over Apply, one observer
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
	// pointer so registration needs no lock; apply loads it once inside
	// its write-lock section.
	obs atomic.Pointer[ApplyObserver]

	// walOwned, once set (MarkWALOwned), marks the summary's durable state
	// as owned by a write-ahead log: every unlogged write panics, because
	// crash recovery would undo it.
	walOwned atomic.Bool

	runs sync.Pool // recycled *runs, Route's insert-splitting scratch
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

// Apply runs m on shard i under one write-lock acquisition and returns
// its extent — edges applied, 1 for a delete that found its entry, leaves
// reclaimed, 1 for Finalize. It is the write path: every public mutator is
// a wrapper over it, and its body is the only place an answer-changing
// write lock is taken (lock_test.go holds that). Every edge of an insert
// must satisfy ShardFor(e.S) == i; routing an edge to the wrong shard
// silently corrupts query results, so callers split batches with Route
// or use Mutate.
//
// seq is m's write-ahead-log sequence number — for an insert, that of its
// last edge — and 0 on the non-durable paths. A sequenced op at or below
// the shard's durability watermark is a replay the shard already holds:
// it is skipped, and nothing moves. Otherwise m runs, the watermark
// advances to seq (0 leaves it alone), and iff m changed what queries may
// answer the section publishes what m could reach — an insert notifies the
// ApplyObserver and publishes the shard's new append frontier, anything
// else one more rewrite — and then bumps the mutation version, all before
// unlocking. So "version advanced past an insert ⇒ observer notified"
// (DESIGN.md §16–§17) and "contents ⇔ watermark" (DESIGN.md §12) hold by
// construction. An empty batch, a missed delete and a vacuous expire
// change no answer and leave the version (and so every read cache) alone.
//
// Callers sequencing against a WAL must apply each shard's ops in
// ascending sequence order, whole records at a time (DESIGN.md §12).
func (s *Summary) Apply(i int, seq uint64, m stream.Mutation) int64 {
	s.checkUnlogged(seq)
	return s.apply(i, seq, m, false)
}

// apply is Apply's body. one marks Insert's single-edge form: m.Edge is
// copied into the slot's one-edge buffer under the lock, so the batch the
// observer sees is not a slice of the caller's stack escaping to the heap
// on every Insert.
func (s *Summary) apply(i int, seq uint64, m stream.Mutation, one bool) (n int64) {
	sl := s.slots[i]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if seq != 0 {
		if seq <= sl.seq {
			return 0
		}
		sl.seq = seq
	}
	switch m.Kind {
	case stream.Insert:
		if one {
			sl.one[0] = m.Edge
			m.Edges = sl.one[:]
		}
		for _, e := range m.Edges {
			sl.sum.Insert(e)
		}
		n = int64(len(m.Edges))
	case stream.Delete:
		if sl.sum.Delete(m.Edge) {
			n = 1
		}
	case stream.Expire:
		n = int64(sl.sum.Expire(m.Cutoff))
	case stream.Finalize:
		sl.sum.Finalize()
		n = 1
	}
	if n > 0 {
		if m.Kind == stream.Insert {
			if obs := s.obs.Load(); obs != nil {
				(*obs).ObserveApply(i, m.Edges)
			}
			sl.frontier.Store(sl.sum.Frontier())
		} else {
			sl.rewrites.Add(1)
		}
		sl.ver.Add(1)
	}
	return n
}

// runs is Route's scratch: edges[i] is shard i's run of a batch, in
// order, and seqs[i] the sequence number of its last edge. Instances
// recycle through Summary.runs and the runs keep their capacity, so a warm
// split — every record a replay applies, every batch the pipeline admits —
// allocates nothing.
type runs struct {
	edges [][]stream.Edge
	seqs  []uint64
}

// Route is the one place an insert batch is split by owner. It hands fn
// the batch's per-shard runs (runs[i] is shard i's, in batch order, empty
// when the batch has none for it) and seqs[i], the sequence number of
// run i's last edge: edge j of a batch logged at seq has seq+j, and an
// unlogged batch (seq 0) numbers every run 0. The runs are pooled scratch,
// valid only until fn returns; Route returns fn's error.
func (s *Summary) Route(seq uint64, edges []stream.Edge, fn func(runs [][]stream.Edge, seqs []uint64) error) error {
	r, _ := s.runs.Get().(*runs)
	if r == nil {
		r = &runs{edges: make([][]stream.Edge, len(s.slots)), seqs: make([]uint64, len(s.slots))}
	}
	for j, e := range edges {
		i := s.ShardFor(e.S)
		r.edges[i] = append(r.edges[i], e)
		if seq != 0 {
			r.seqs[i] = seq + uint64(j)
		}
	}
	err := fn(r.edges, r.seqs)
	for i, run := range r.edges {
		r.edges[i], r.seqs[i] = run[:0], 0
	}
	s.runs.Put(r)
	return err
}

// Mutate routes m, logged at sequence number seq (0 when unlogged), to
// the shards it addresses and returns its summed extent (see Apply): an
// insert applies each shard's run of it at the sequence number Route
// gives the run; a delete goes to its edge's owner; an expire or a
// finalize goes to every shard, concurrently. Each shard skips what its
// watermark already holds, so replaying an overlapping stream of records —
// a recovery tail over a snapshot, a re-delivered replication chunk —
// applies every record exactly once per shard.
func (s *Summary) Mutate(seq uint64, m stream.Mutation) int64 {
	s.checkUnlogged(seq)
	switch m.Kind {
	case stream.Insert:
		var n int64
		s.Route(seq, m.Edges, func(runs [][]stream.Edge, seqs []uint64) error {
			for i, run := range runs {
				if len(run) > 0 {
					n += s.Apply(i, seqs[i], stream.Mutation{Kind: stream.Insert, Edges: run})
				}
			}
			return nil
		})
		return n
	case stream.Delete:
		return s.Apply(s.ShardFor(m.Edge.S), seq, m)
	}
	var n atomic.Int64
	s.eachShard(func(i int) { n.Add(s.Apply(i, seq, m)) })
	return n.Load()
}

// Insert adds one stream item to the shard of its source vertex.
// Timestamps must be non-decreasing per shard; since each shard receives a
// subsequence of the stream, any globally time-ordered stream satisfies
// this (out-of-order items are clamped per shard, see core.Summary). It is
// unlogged, so it trips the WAL-ownership guard, as do InsertBatch and
// Finalize; on a summary a WAL-backed pipeline feeds, use its Submit.
func (s *Summary) Insert(e stream.Edge) {
	s.checkUnlogged(0)
	s.apply(s.ShardFor(e.S), 0, stream.Mutation{Kind: stream.Insert, Edge: e}, true)
}

// InsertBatch adds a batch of stream items, one run per shard, so each
// shard's lock is taken once per batch rather than once per edge. Relative
// order within a shard is preserved.
func (s *Summary) InsertBatch(edges []stream.Edge) {
	s.Mutate(0, stream.Mutation{Kind: stream.Insert, Edges: edges})
}

// InsertShardAt is Apply of an insert: it applies a batch of stream items
// that all belong to shard i under one write-lock acquisition — the
// group-commit primitive internal/ingest builds on (DESIGN.md §9) — at
// seq, the highest write-ahead-log sequence number in the batch. The
// signature is frozen: benchmark/ compiles against it (frozen_test.go).
func (s *Summary) InsertShardAt(i int, edges []stream.Edge, seq uint64) {
	s.Apply(i, seq, stream.Mutation{Kind: stream.Insert, Edges: edges})
}

// ShardSeq returns shard i's durability watermark: every WAL-sequenced
// op owned by the shard with sequence number ≤ ShardSeq(i) has been
// applied, and Apply skips any that is replayed.
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
// (DESIGN.md §16). Stats and WriteTo do not advance it — they take the read
// lock, and the seals Stats forces are answer-neutral, so monitoring and
// snapshot traffic invalidate no cache.
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
// vertex, reporting whether a matching entry was found. It is unlogged, so
// it trips the WAL-ownership guard; on a summary a WAL-backed pipeline
// feeds, use the pipeline's Delete.
func (s *Summary) Delete(e stream.Edge) bool {
	return s.Mutate(0, stream.Mutation{Kind: stream.Delete, Edge: e}) > 0
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
		out[j] = sl.sum.Probe(p).Weight
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
// Expire is unlogged and therefore must not be called on a summary owned
// by a WAL-backed ingest pipeline: crash recovery would silently undo it
// (the replay re-inserts every expired edge). MarkWALOwned arms a guard
// that turns such a call into a panic; route retention through the
// pipeline's Expire instead, which sequences and logs it (DESIGN.md §13).
func (s *Summary) Expire(cutoff int64) int64 {
	return s.ExpireAt(cutoff, 0)
}

// MarkWALOwned arms the guard that makes every unlogged write panic: the
// summary's durable state is owned by a write-ahead log, so every insert,
// expire, delete and finalize must be sequenced and logged by the ingest
// pipeline. It is called by ingest.New when the pipeline is WAL-backed and
// is never unset.
func (s *Summary) MarkWALOwned() { s.walOwned.Store(true) }

// ExpireAt is Mutate of an expire logged at seq (0 is unlogged, exactly
// Expire). The signature is frozen: benchmark/ compiles against it
// (frozen_test.go).
func (s *Summary) ExpireAt(cutoff int64, seq uint64) int64 {
	return s.Mutate(seq, stream.Mutation{Kind: stream.Expire, Cutoff: cutoff})
}

// checkUnlogged panics on an unlogged (seq 0) write of a WAL-owned
// summary, whatever its kind and whichever entry point it arrives through:
// applied in memory with no record and no watermark advance, it would be
// silently undone by the next crash recovery — an insert lost, an expired
// or deleted edge resurrected — and never reach a follower. Apply, Mutate
// and Insert call it before any shard is touched, so the panic reaches the
// caller's goroutine, never one of eachShard's. A sequenced write pays
// nothing: seq != 0 short-circuits before the atomic load.
func (s *Summary) checkUnlogged(seq uint64) {
	if seq == 0 && s.walOwned.Load() {
		panic("shard: unlogged insert, expire, delete or finalize on a WAL-owned summary would be undone by crash recovery; write through the ingest pipeline (Submit, Expire, Delete)")
	}
}

// Finalize marks the end of the stream on every shard concurrently; see
// core.Summary.Finalize. Finalize is idempotent.
func (s *Summary) Finalize() {
	s.Mutate(0, stream.Mutation{Kind: stream.Finalize})
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

// Stats gathers statistics from every shard concurrently, each under its
// shard's read lock. Per-shard figures follow core.Summary.Stats, which
// builds every pending aggregate first: a Stats after ingest or a load pays
// the seals no read has paid yet, beside queries, while that shard's
// writers wait. Total sums them, except Layers (the maximum tree height)
// and AvgLeafUtil (leaf-weighted mean).
func (s *Summary) Stats() Stats {
	st := Stats{Shards: len(s.slots), PerShard: make([]core.Stats, len(s.slots))}
	s.eachShard(func(i int) {
		// Its seals go through the latch first reads share, and it bumps
		// no version: monitoring traffic invalidates no cache.
		sl := s.slots[i]
		sl.mu.RLock()
		st.PerShard[i] = sl.sum.Stats()
		sl.mu.RUnlock()
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
