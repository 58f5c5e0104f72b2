// Package higgs is the public API of this repository: a Go implementation
// of HIGGS — HIerarchy-Guided Graph Stream Summarization (Zhao, Xie,
// Jensen; ICDE 2025) — together with the graph stream model it operates on.
//
// A HIGGS summary ingests a time-ordered stream of weighted directed edges
// and answers temporal range queries (edge, vertex, path, and subgraph
// weights over arbitrary time windows) approximately, with one-sided error:
// results never under-estimate the truth. Internally it is an item-based,
// bottom-up aggregated B-tree of compressed matrices; see DESIGN.md for the
// architecture and internal/ for the substrates and the baselines used by
// the benchmark harness (GSS, Auxo, PGSS, Horae, AuxoTime).
//
// # Quick start
//
//	s, err := higgs.New(higgs.DefaultConfig())
//	if err != nil { ... }
//	s.Insert(higgs.Edge{S: alice, D: bob, W: 1, T: now})
//	...
//	w := s.EdgeWeight(alice, bob, t0, t1) // weight of alice→bob in [t0,t1]
//
// Runnable examples live under examples/, and cmd/higgsbench regenerates
// every table and figure of the paper's evaluation.
package higgs

import (
	"io"
	"time"

	"higgs/internal/admit"
	"higgs/internal/analytics"
	"higgs/internal/core"
	"higgs/internal/ingest"
	"higgs/internal/query"
	"higgs/internal/rcache"
	"higgs/internal/repl"
	"higgs/internal/shard"
	"higgs/internal/stream"
	"higgs/internal/wal"
)

// Edge is one graph stream item: a directed edge S→D carrying weight W,
// arriving at time T (seconds). Streams must arrive in non-decreasing T
// order.
type Edge = stream.Edge

// Stream is a time-ordered sequence of edges.
type Stream = stream.Stream

// Config parameterizes a HIGGS summary; see DefaultConfig for the paper's
// recommended values.
type Config = core.Config

// Summary is a HIGGS graph stream summary. See package core for full
// method documentation: Insert, Delete, EdgeWeight, VertexOut, VertexIn,
// PathWeight, SubgraphWeight, Expire, Finalize, Stats.
type Summary = core.Summary

// Stats reports structural statistics of a summary.
type Stats = core.Stats

// DefaultConfig returns the paper's recommended configuration (§VI-A):
// 16×16 leaf matrices, 19-bit fingerprints, 3-entry buckets, θ = 4,
// 4 mapping positions per vertex, overflow blocks enabled.
func DefaultConfig() Config { return core.DefaultConfig() }

// New returns an empty HIGGS summary for the given configuration.
func New(cfg Config) (*Summary, error) { return core.New(cfg) }

// FromStream builds a summary over an existing stream and finalizes it, so
// it is immediately ready for whole-range queries and space accounting.
func FromStream(cfg Config, s Stream) (*Summary, error) {
	sum, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, e := range s {
		sum.Insert(e)
	}
	sum.Finalize()
	return sum, nil
}

// GenerateStream synthesizes a deterministic graph stream with power-law
// vertex degrees and bursty arrivals; see stream.Config for the knobs.
func GenerateStream(cfg StreamConfig) (Stream, error) { return stream.Generate(cfg) }

// StreamConfig controls synthetic stream generation.
type StreamConfig = stream.Config

// Load restores a summary from a snapshot previously written with
// Summary.WriteTo, reading r to its end first. Unless the snapshot was
// finalized, the loaded summary continues accepting inserts where the
// original left off.
func Load(r io.Reader) (*Summary, error) { return core.Read(r) }

// Sharded is a hash-partitioned HIGGS summary: edges are partitioned by
// source vertex across independent shards, each behind its own lock, so
// ingest parallelizes and queries fan out across shards. Unlike Summary, a
// Sharded is safe for concurrent use by multiple goroutines. Besides the
// per-kind query methods it answers unified queries via Do and DoBatch
// (the batch path acquires at most one read lock per shard per batch; see
// Query), and it supports sliding-window operation via Expire, which
// drops fully expired subtrees shard by shard under the shards' write
// locks. See package shard for full method documentation and DESIGN.md §8
// for the partitioning model.
//
// Durable-retention invariant: once a Sharded summary is fed by a
// WAL-backed Ingest pipeline (IngestConfig.WAL), the pipeline's Expire and
// Delete are the ONLY expire and delete entry points — they sequence the
// operation against in-flight batches and record it in the log, so crash
// recovery reproduces it. Calling Sharded.Expire or Sharded.Delete
// directly on such a summary panics: the unlogged operation would be
// silently undone on the next recovery, resurrecting what it removed
// (DESIGN.md §12–§13).
type Sharded = shard.Summary

// ShardedConfig parameterizes a sharded summary: the shard count and the
// per-shard HIGGS configuration.
type ShardedConfig = shard.Config

// ShardedStats reports aggregate and per-shard structural statistics.
type ShardedStats = shard.Stats

// DefaultShardedConfig returns a 4-way sharded version of DefaultConfig.
func DefaultShardedConfig() ShardedConfig { return shard.DefaultConfig() }

// NewSharded returns an empty sharded summary for the given configuration.
func NewSharded(cfg ShardedConfig) (*Sharded, error) { return shard.New(cfg) }

// LoadSharded restores a sharded summary from a snapshot previously
// written with Sharded.WriteTo. An unsharded snapshot (written by
// Summary.WriteTo) is refused; Load reads those.
func LoadSharded(r io.Reader) (*Sharded, error) { return shard.Read(r) }

// Ingest is an asynchronous group-commit pipeline in front of a Sharded
// summary: Submit routes edges into per-shard bounded queues, committer
// goroutines apply whatever accumulated under one lock acquisition per
// shard, Flush is the visibility barrier, Expire and Delete are the
// sequenced (and, with a WAL, logged and crash-safe) retention and
// deletion entry points, and Close drains everything accepted. See package ingest for
// full method documentation and DESIGN.md §9 and §13 for the model.
type Ingest = ingest.Pipeline

// IngestConfig parameterizes an ingest pipeline: per-shard queue depth,
// group-commit accumulation window, and the optional write-ahead log.
type IngestConfig = ingest.Config

// Backpressure and lifecycle errors returned by Ingest.Submit.
var (
	ErrIngestQueueFull = ingest.ErrQueueFull
	ErrIngestClosed    = ingest.ErrClosed
)

// DefaultIngestConfig returns the default pipeline configuration
// (4096-edge queues, no accumulation delay).
func DefaultIngestConfig() IngestConfig { return ingest.DefaultConfig() }

// NewIngest returns a group-commit ingest pipeline over the summary. The
// pipeline does not own the summary: closing the pipeline drains accepted
// edges into it, and the summary stays queryable.
func NewIngest(s *Sharded, cfg IngestConfig) (*Ingest, error) { return ingest.New(s, cfg) }

// WAL is a segmented, fsync-batched write-ahead log of stream edges: the
// durability substrate in front of an Ingest pipeline (IngestConfig.WAL),
// making accepted edges survive a crash, not just an orderly shutdown. See
// package wal for full method documentation and DESIGN.md §12 for the
// format, sync policy, truncation rule, and recovery sequence.
type WAL = wal.Log

// WALConfig parameterizes a write-ahead log: the directory, the segment
// rotation threshold, and the group-sync cadence.
type WALConfig = wal.Config

// OpenWAL opens (creating if necessary) the log in cfg.Dir, repairing a
// torn tail from a previous crash. Recover the summary (Recover) before
// handing the log to an ingest pipeline.
func OpenWAL(cfg WALConfig) (*WAL, error) { return wal.Open(cfg) }

// Recover replays a write-ahead log into a sharded summary — freshly
// built, or loaded from the latest snapshot, whose per-shard watermarks
// tell Recover exactly which edges to skip. It returns the number of
// edges applied and must run before the log backs a live pipeline.
func Recover(s *Sharded, w *WAL) (int64, error) { return ingest.Recover(s, w) }

// Snapshotter takes periodic background snapshots of a WAL-backed
// pipeline's summary and truncates the log's covered prefix. See
// ingest.Snapshotter.
type Snapshotter = ingest.Snapshotter

// NewSnapshotter returns a snapshotter writing the summary atomically to
// path every interval once Start is called (interval ≤ 0 disables the
// loop; Snap still works on demand). onError observes background failures.
func NewSnapshotter(s *Sharded, p *Ingest, w *WAL, path string, interval time.Duration, onError func(error)) *Snapshotter {
	return ingest.NewSnapshotter(s, p, w, path, interval, onError)
}

// WriteSnapshot writes the summary's snapshot to path atomically (temp
// file + fsync + rename), so a crash mid-write leaves the previous
// snapshot intact.
func WriteSnapshot(s *Sharded, path string) error { return ingest.WriteSnapshot(s, path) }

// Retainer runs sliding-window retention over an Ingest pipeline: every
// RetentionConfig.Interval it expires everything older than now minus
// RetentionConfig.Window through Ingest.Expire, so each expire is
// sequenced against in-flight batches and — on a WAL-backed pipeline —
// logged and crash-safe. See ingest.Retainer and DESIGN.md §13.
type Retainer = ingest.Retainer

// RetentionConfig parameterizes a Retainer: the sliding window, the loop
// cadence (0 = Window/10, at least one second), an optional clock
// override, and an optional background-error observer.
type RetentionConfig = ingest.RetentionConfig

// NewRetainer returns a retainer enforcing cfg over the pipeline once
// Start is called. Close the retainer before closing the pipeline. A
// caller that swaps pipelines at runtime should use ingest.NewRetainer
// directly with a pipeline accessor; this convenience binding is for the
// common case of one long-lived pipeline.
func NewRetainer(p *Ingest, cfg RetentionConfig) (*Retainer, error) {
	return ingest.NewRetainer(func() *ingest.Pipeline { return p }, cfg)
}

// ReplicationPrimary serves a WAL-backed summary's replication feed over
// HTTP: its snapshot plus the log as a stream of typed, sequence-numbered
// records (DESIGN.md §15). Mount Handler on a private listener; only
// durable (fsync'd) records are ever shipped. See repl.Primary.
type ReplicationPrimary = repl.Primary

// NewReplicationPrimary returns the replication feed over the summary and
// the write-ahead log backing its ingest pipeline.
func NewReplicationPrimary(s *Sharded, w *WAL) *ReplicationPrimary { return repl.NewPrimary(s, w) }

// Follower replicates a primary's summary: boot from a snapshot (or a
// local cache), then tail durable WAL records through the same per-shard
// watermark machinery crash recovery uses — so the replica is provably
// at-a-known-sequence and byte-identical to the primary at that sequence.
// The replicated Summary is safe for concurrent readers throughout. See
// repl.Follower.
type Follower = repl.Follower

// FollowerConfig parameterizes a Follower: the primary's replication URL,
// an optional local snapshot-cache directory, poll/retry cadences, and
// observers for background errors and resync summary swaps.
type FollowerConfig = repl.FollowerConfig

// FollowerStatus is a follower's replication state: its role, applied and
// primary sequence numbers, lag, and the resync count.
type FollowerStatus = repl.Status

// NewFollower validates the configuration and returns an unstarted
// follower; Start performs the boot fetch and launches the tail loop (call
// Boot first to build something over Summary before any resync can swap it).
func NewFollower(cfg FollowerConfig) (*Follower, error) { return repl.NewFollower(cfg) }

// ReadCache is a watermark-invalidated read cache over a Sharded summary
// (or any rcache.Backend): it memoizes single-shard probe results keyed by
// (shard, probe, shard mutation version), so a hit is provably identical
// to an uncached probe — every applied write advances the shard's version,
// and there are no TTLs. An answer over a window that ended before the
// shard's newest timestamp outlives inserts (none can land inside it) and
// dies only with a delete or a reclaiming expire. The cache implements the same prober seam the
// query planner runs on, so Do and DoBatch work unchanged on top of it; a
// batch whose probes all hit touches no shard read lock at all. See
// package rcache and DESIGN.md §16.
type ReadCache = rcache.Cache

// ReadCacheConfig parameterizes a ReadCache: the total byte budget split
// across the backend's shards, each held as sets of 8 ways that evict
// their least recently used way.
type ReadCacheConfig = rcache.Config

// ReadCacheStats is a point-in-time snapshot of a ReadCache's counters.
type ReadCacheStats = rcache.Stats

// NewReadCache returns a read cache over the sharded summary. Queries run
// through the cache (query.Do / query.DoBatch with the cache as prober);
// writes keep going to the summary directly — the per-shard mutation
// version invalidates affected entries automatically.
func NewReadCache(s *Sharded, cfg ReadCacheConfig) (*ReadCache, error) { return rcache.New(s, cfg) }

// Admission is an admission controller for query traffic: queries are
// classified cheap or heavy by planned probe count, each class runs under
// its own concurrency budget with a bounded wait queue, and per-client
// token buckets shed sustained overload. See package admit and
// DESIGN.md §16.
type Admission = admit.Controller

// AdmissionConfig parameterizes an Admission controller: the heavy-class
// probe threshold, per-class concurrency budgets and queue depths, the
// bounded queue wait, and the per-client rate/burst.
type AdmissionConfig = admit.Config

// AdmissionStats is a point-in-time snapshot of an Admission controller's
// counters.
type AdmissionStats = admit.Stats

// Admission rejection errors: ErrOverloaded when a class's queue is full
// (or the wait timed out), ErrRateLimited when a client exhausted its
// token bucket.
var (
	ErrOverloaded  = admit.ErrOverloaded
	ErrRateLimited = admit.ErrRateLimited
)

// NewAdmission validates the configuration (zero values take defaults) and
// returns an admission controller.
func NewAdmission(cfg AdmissionConfig) (*Admission, error) { return admit.New(cfg) }

// Query describes one temporal range query of any kind — edge, vertex
// (out / in), path, subgraph, the delta kinds, heavy hitters, or bursts —
// over closed [Ts, Te] windows; build them with the NewEdgeQuery,
// NewVertexQuery, NewPathQuery, NewSubgraphQuery, NewDeltaVertexQuery,
// NewDeltaEdgeQuery, NewHeavyHittersQuery, and NewBurstQuery constructors.
// Execute via Sharded.Do or, for whole batches answered under at most one
// read-lock acquisition per shard, Sharded.DoBatch (DESIGN.md §11); heavy
// hitters and bursts additionally need an Analytics engine (DoBatchWith).
// Its JSON form is the wire format of the server's POST /v2/query
// endpoint. See package query for details.
type Query = query.Query

// Result is the answer to one Query: the estimated aggregated weight
// (never an under-estimate) for the scalar kinds, a ranked Top list for
// the analytics kinds, or the query's validation error.
type Result = query.Result

// QueryEntry is one ranked answer row of an analytics query: the vertex
// (or edge) with its window estimates, delta, and burst score/flag.
type QueryEntry = query.Entry

// QueryKind selects the temporal query kind of a Query. It marshals to
// and from its wire name ("edge", "vertex_out", "vertex_in", "path",
// "subgraph", "delta_vertex", "delta_edge", "heavy_hitters", "burst").
type QueryKind = query.Kind

// The temporal query kinds.
const (
	QueryEdge         = query.KindEdge
	QueryVertexOut    = query.KindVertexOut
	QueryVertexIn     = query.KindVertexIn
	QueryPath         = query.KindPath
	QuerySubgraph     = query.KindSubgraph
	QueryDeltaVertex  = query.KindDeltaVertex
	QueryDeltaEdge    = query.KindDeltaEdge
	QueryHeavyHitters = query.KindHeavyHitters
	QueryBurst        = query.KindBurst
)

// Degree directions for vertex, delta-vertex, and heavy-hitter queries
// (WithDirection).
const (
	DirOut = query.DirOut
	DirIn  = query.DirIn
)

// ParseQueryKind maps a wire name ("edge", "vertex_out", ...) to its kind.
func ParseQueryKind(s string) (QueryKind, error) { return query.ParseKind(s) }

// Window is a closed temporal query window [Ts, Te] (seconds, inclusive on
// both ends). The zero Window is deliberately invalid — a query whose
// window was never set is rejected with a distinct error rather than
// silently answering the weight at instant 0; use Between, or set Ts/Te
// explicitly (a single instant t is Between(t, t)).
type Window struct {
	Ts int64
	Te int64
}

// Between returns the window [ts, te].
func Between(ts, te int64) Window { return Window{Ts: ts, Te: te} }

// QueryOption customizes a query built by the New*Query constructors:
// WithTopK, WithDirection, WithCandidates.
type QueryOption func(*Query)

// WithTopK caps the ranked output of an analytics query at k rows
// (0 selects the default, currently 10; the maximum is 256).
func WithTopK(k int) QueryOption { return func(q *Query) { q.K = k } }

// WithDirection selects the degree direction — DirOut (the default) or
// DirIn — of a vertex, delta-vertex, or heavy-hitter query.
func WithDirection(dir string) QueryOption { return func(q *Query) { q.Dir = dir } }

// WithCandidates sets the candidate vertex set of a delta-vertex query
// built without one. The set may be omitted entirely when an Analytics
// engine is at hand (higgsd -analytics, DoBatchWith): it fills the set
// from its tracked heavy hitters.
func WithCandidates(vs []uint64) QueryOption { return func(q *Query) { q.Candidates = vs } }

func applyOptions(q Query, opts []QueryOption) Query {
	for _, o := range opts {
		o(&q)
	}
	return q
}

// NewEdgeQuery returns an edge-weight query for s→d over w.
func NewEdgeQuery(s, d uint64, w Window, opts ...QueryOption) Query {
	return applyOptions(query.NewEdge(s, d, w.Ts, w.Te), opts)
}

// NewVertexQuery returns a vertex-weight query for v over w: outgoing
// weight by default, incoming with WithDirection(DirIn).
func NewVertexQuery(v uint64, w Window, opts ...QueryOption) Query {
	q := applyOptions(query.NewVertexOut(v, w.Ts, w.Te), opts)
	// The scalar vertex kinds carry their direction in the kind itself;
	// fold the option back in and clear the analytics-only field.
	switch q.Dir {
	case DirIn:
		q.Kind = query.KindVertexIn
		q.Dir = ""
	case DirOut:
		q.Dir = ""
	}
	return q
}

// NewPathQuery returns a path-weight query along path over w.
func NewPathQuery(path []uint64, w Window, opts ...QueryOption) Query {
	return applyOptions(query.NewPath(path, w.Ts, w.Te), opts)
}

// NewSubgraphQuery returns a subgraph-weight query over the edge set in w.
func NewSubgraphQuery(edges [][2]uint64, w Window, opts ...QueryOption) Query {
	return applyOptions(query.NewSubgraph(edges, w.Ts, w.Te), opts)
}

// NewDeltaVertexQuery returns a vertex delta query: each candidate's
// degree weight is estimated over both windows and candidates are ranked
// by |weight in compare − weight in base|. Options: WithCandidates (or
// pass the set here), WithDirection, WithTopK.
func NewDeltaVertexQuery(candidates []uint64, base, compare Window, opts ...QueryOption) Query {
	return applyOptions(query.NewDeltaVertex(candidates, base.Ts, base.Te, compare.Ts, compare.Te), opts)
}

// NewDeltaEdgeQuery returns an edge delta query: each candidate edge's
// weight is estimated over both windows and edges are ranked by
// |compare − base|.
func NewDeltaEdgeQuery(edges [][2]uint64, base, compare Window, opts ...QueryOption) Query {
	return applyOptions(query.NewDeltaEdge(edges, base.Ts, base.Te, compare.Ts, compare.Te), opts)
}

// NewHeavyHittersQuery returns a heavy-hitter query: the top-k of an
// Analytics engine's tracked vertices by out-weight (or in-weight with
// WithDirection(DirIn)) in the retained summary, each weight a vertex
// probe.
func NewHeavyHittersQuery(opts ...QueryOption) Query {
	return applyOptions(query.NewHeavyHitters("", 0), opts)
}

// NewBurstQuery returns a burst query: the top-k of the vertices an
// Analytics engine tracks in the current epoch, by current-epoch
// out-weight over their per-epoch baseline, each flagged when the score
// clears the burst threshold. Both weights are vertex probes.
func NewBurstQuery(opts ...QueryOption) Query {
	return applyOptions(query.NewBurst(0), opts)
}

// Analytics is the stream-analytics engine (DESIGN.md §17): per-shard
// bounded candidate sets, maintained inside the same write-lock sections
// that apply edges to the summary, naming which vertices heavy-hitter,
// burst and candidate-less delta-vertex queries probe. It computes no
// weight: every answer is probes of the summary. Attach one to a Sharded
// summary with SetApplyObserver; higgsd wires this up under -analytics.
type Analytics = analytics.Engine

// AnalyticsConfig parameterizes an Analytics engine: the tracked-candidate
// budget, the burst epochs and the flag rule. The zero value of every knob
// selects a documented default; Shards must match the summary the engine
// observes.
type AnalyticsConfig = analytics.Config

// AnalyticsStats is a point-in-time snapshot of an Analytics engine's
// counters, as reported under /healthz's "analytics" field.
type AnalyticsStats = analytics.Stats

// NewAnalytics validates the configuration and returns an engine. Register
// it on the summary it should observe:
//
//	eng, _ := higgs.NewAnalytics(cfg)
//	sum.SetApplyObserver(eng)
//
// and answer heavy-hitter and burst queries via DoBatchWith.
func NewAnalytics(cfg AnalyticsConfig) (*Analytics, error) { return analytics.New(cfg) }

// QueryProber is the planner seam every query executes through: a Sharded
// summary, or a ReadCache over one.
type QueryProber = query.Prober

// DoBatchWith answers the batch over the prober — at most one read-lock
// acquisition per shard, exactly like Sharded.DoBatch — with the analytics
// engine supplying the candidates of heavy_hitters, burst and
// candidate-less delta_vertex items. With a nil engine heavy_hitters and
// burst fail per item with a stable "analytics_disabled" code; the scalar
// and delta kinds are unaffected.
func DoBatchWith(p QueryProber, a *Analytics, qs []Query) []Result {
	if a == nil {
		return query.DoBatchWith(p, nil, qs)
	}
	return query.DoBatchWith(p, a, qs)
}
