// Package server exposes a sharded HIGGS summary over HTTP as a small
// query service (DESIGN.md §10): stream items are POSTed in, TRQ
// primitives are asked in batches, and the snapshot codec is wired to
// download/upload endpoints so a summary can be moved between processes.
// cmd/higgsd is the thin binary around it; README "Running the server"
// documents every endpoint, status code, and flag.
//
// A server is built once, by Open, from Options; every endpoint is a row of
// one route table (routes, served by httpapi.Mux), whose adapter owns the
// unknown-path, method and read-only-replica rejections and renders the
// typed errors handlers return.
//
// Concurrency is delegated to package shard: every mutation locks only the
// shards it touches and queries fan out under per-shard read locks, so
// requests hitting different shards proceed in parallel — there is no
// server-global lock (DESIGN.md §8).
//
// Reads have one endpoint: POST /v2/query takes a JSON array of questions
// — edge, vertex, path, subgraph and the analytics kinds — and answers the
// whole batch with at most one read-lock acquisition per shard
// (internal/query, DESIGN.md §11). It reports item-level problems (an
// unknown kind, an inverted window, a malformed item) per item in the
// response array; 400 is reserved for a malformed envelope. GET /healthz is
// the load-balancer probe: it reports the serving configuration without
// touching a shard lock or any query path.
//
// Writes have one admission path, the group-commit pipeline of package
// ingest (DESIGN.md §9), behind two endpoints. /v1/insert answers 200 once
// the edges are applied and visible (it flushes a queued batch).
// /v1/ingest answers as soon as the batch is admitted: 202 means the
// batch is accepted and will be applied in order — durable for the
// process's lifetime, drained even on orderly shutdown, and guaranteed
// visible after a later POST /v1/flush returns — while 429 signals a full
// shard queue with nothing applied or enqueued, so the client may simply
// retry the identical batch. The one exception to 202 durability is a
// snapshot upload, which by design discards the entire served summary,
// accepted-but-uncommitted edges included.
//
// With a write-ahead log behind the pipeline (higgsd -wal-dir, DESIGN.md
// §12) the 202 contract strengthens from process-lifetime to crash
// durability: the batch is fsync'd before the response, GET /healthz
// reports the WAL/snapshot state in its "durability" field, and POST
// /v1/snapshot is rejected with 409 — the log owns the durable state, and
// swapping in a foreign summary would desynchronize its watermarks from
// the log's sequences.
//
// Retention is a write: POST /v1/expire drops everything wholly before a
// cutoff through the pipeline's sequenced (and, with a WAL, logged and
// fsync'd) expire path, so expired edges stay expired across a crash
// (DESIGN.md §13). higgsd's background retention loop uses the same path
// and reports its counters in /healthz's "retention" field.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"higgs/internal/admit"
	"higgs/internal/analytics"
	"higgs/internal/httpapi"
	"higgs/internal/ingest"
	"higgs/internal/query"
	"higgs/internal/rcache"
	"higgs/internal/repl"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

// state pairs the served summary with the ingest pipeline feeding it. The
// two must swap together on snapshot upload — a pipeline drains into
// exactly the summary it was built over. The read prober (and its cache,
// when enabled) swaps with them: a cache is bound to exactly one summary's
// shard versions, so replacing the summary replaces — and thereby busts —
// the cache in the same atomic pointer swap (DESIGN.md §16).
type state struct {
	sum  *shard.Summary
	pipe *ingest.Pipeline
	// read is the prober /v2/query runs: the summary itself, or a
	// watermark-invalidated cache over it (SetReadCache).
	read query.Prober
	// cache is non-nil exactly when read is the cache, for /healthz stats.
	cache *rcache.Cache
	// eng is the analytics engine observing sum (nil when analytics is
	// off). It swaps with the summary: its candidate sets come from exactly
	// one summary's apply stream, so replacing the summary replaces the
	// engine in the same atomic pointer swap (DESIGN.md §17).
	eng *analytics.Engine
}

// analytics is eng as the planner takes it: a nil interface, not a typed
// nil *Engine, when analytics is off.
func (st *state) analytics() query.Analytics {
	if st.eng == nil {
		return nil
	}
	return st.eng
}

// Server wraps a sharded HIGGS summary with an HTTP API. The serving state
// is swapped atomically on snapshot upload and replica resync, so in-flight
// requests always see a consistent summary; everything else is fixed by
// Open, except the cache budget (SetReadCache).
type Server struct {
	st         atomic.Pointer[state]
	cacheBytes atomic.Int64
	closed     atomic.Bool
	opts       Options
	start      time.Time
	replayed   int64
}

// Options is everything a server is built from. The zero value serves the
// summary with the default ingest pipeline and nothing optional.
type Options struct {
	// Ingest configures the group-commit pipeline behind the write
	// endpoints (cmd/higgsd maps -queue-depth and -commit-interval onto it).
	// With Ingest.WAL set the log owns the durable state: Open replays it
	// into the summary, every accepted write is appended and fsync'd before
	// its response, and POST /v1/snapshot answers 409 — swapping in a foreign
	// summary would desynchronize its watermarks from the log's sequences.
	Ingest ingest.Config
	// Replica makes the server read-only: /v2/query works (the summary is
	// live — a replication follower applies records under per-shard write
	// locks, exactly like ingest), every write endpoint answers 403, because
	// a replica's state is defined entirely by the primary's record stream,
	// and ReplaceSummary is allowed. No write ever reaches the pipeline
	// Ingest configures.
	Replica bool
	// CacheBytes is the byte budget of the watermark-invalidated read cache
	// in front of the planner (DESIGN.md §16); 0 serves uncached.
	CacheBytes int64
	// Analytics, when non-nil, attaches a stream-analytics engine to the
	// served summary as its apply observer (DESIGN.md §17). Shards is
	// derived from the summary; the zero Config selects the documented
	// defaults.
	Analytics *analytics.Config
	// Admission, when non-nil, fronts /v2/query: shed requests answer 429
	// with a Retry-After pacing hint. Write and operational endpoints are
	// not admission-controlled (ingest has its own backpressure).
	Admission *admit.Controller
	// Durability, Retention and Replication are the probes GET /healthz
	// calls for the fields of those names; nil reports the zero status (for
	// Replication, repl.RoleStandalone). They are first called once the
	// handler serves, so they may read loops started after Open.
	Durability  func() ingest.DurabilityStatus
	Retention   func() ingest.RetentionStatus
	Replication func() repl.Status
}

// Open builds a server over the summary: the serving state is attached —
// read cache and analytics engine included — and only then is
// opts.Ingest.WAL replayed into the summary (ingest.Recover, DESIGN.md
// §12), so the engine tracks recovered edges exactly like live ones.
func Open(sum *shard.Summary, opts Options) (*Server, error) {
	s := &Server{opts: opts, start: time.Now()}
	s.cacheBytes.Store(opts.CacheBytes)
	st, err := s.newState(sum)
	if err != nil {
		return nil, err
	}
	s.st.Store(st)
	if log := opts.Ingest.WAL; log != nil {
		// Nothing appends before Open returns, so the pipeline holding the
		// log does not race the replay.
		if s.replayed, err = ingest.Recover(sum, log); err != nil {
			st.pipe.Close()
			return nil, err
		}
	}
	return s, nil
}

// NewWithIngest is Open with only the ingest configuration set. The
// signature is frozen: benchmark/ compiles against it (frozen_test.go).
func NewWithIngest(sum *shard.Summary, icfg ingest.Config) (*Server, error) {
	return Open(sum, Options{Ingest: icfg})
}

// Replayed returns the number of edges Open replayed from the write-ahead
// log.
func (s *Server) Replayed() int64 { return s.replayed }

// newState assembles the swapped-together unit of serving state over a
// summary: its pipeline, a fresh cache when a budget is set, a fresh
// analytics engine when configured. Building all of it here, at every swap
// site, is what makes "bust the cache", "restart the candidate sets" and
// "replace the summary" the same atomic operation.
func (s *Server) newState(sum *shard.Summary) (*state, error) {
	st := &state{sum: sum}
	err := st.setReader(s.cacheBytes.Load())
	if err != nil {
		return nil, err
	}
	if s.opts.Analytics != nil {
		cfg := *s.opts.Analytics
		cfg.Shards = sum.NumShards()
		if st.eng, err = analytics.New(cfg); err != nil {
			return nil, err
		}
		// Registered before the state becomes visible (and before Open
		// replays the log), so the engine sees every apply the summary
		// receives from here on. The summary's pre-existing contents are
		// served but not tracked: candidate ids rebuild from the applied
		// tail.
		sum.SetApplyObserver(st.eng)
	}
	// Last: the pipeline starts goroutines, and nothing above can fail after.
	if st.pipe, err = ingest.New(sum, s.opts.Ingest); err != nil {
		return nil, err
	}
	return st, nil
}

// setReader points the state's queries at the summary itself or, with a
// budget, at a fresh cache over it.
func (st *state) setReader(maxBytes int64) (err error) {
	st.read, st.cache = st.sum, nil
	if maxBytes != 0 {
		if st.cache, err = rcache.New(st.sum, rcache.Config{MaxBytes: maxBytes}); err != nil {
			return err
		}
		st.read = st.cache
	}
	return nil
}

// swap replaces the served summary. The old pipeline is closed, which
// drains it into the old summary: in-flight /v1/ingest requests that were
// already accepted complete their contract against the summary they
// targeted, even though the swap then discards that summary wholesale.
func (s *Server) swap(sum *shard.Summary) error {
	st, err := s.newState(sum)
	if err != nil {
		return err
	}
	old := s.st.Swap(st)
	old.pipe.Close()
	if s.closed.Load() {
		// Close ran concurrently with the swap; nothing may outlive its drain
		// contract (Close's own loop usually catches this — both closes are
		// idempotent).
		st.pipe.Close()
	}
	return nil
}

// SetReadCache installs (or, with maxBytes 0, removes) the read cache over
// the served summary, overriding Options.CacheBytes; every later summary
// swap builds its cache with the new budget. Budgets below rcache.MinBytes
// are rejected. The signature is frozen: benchmark/ compiles against it
// (frozen_test.go).
func (s *Server) SetReadCache(maxBytes int64) error {
	for {
		old := s.st.Load()
		next := *old
		if err := next.setReader(maxBytes); err != nil {
			return err
		}
		s.cacheBytes.Store(maxBytes)
		if s.st.CompareAndSwap(old, &next) {
			return nil
		}
		// A snapshot upload or resync swapped concurrently; retry so the
		// call's effect is unconditional.
	}
}

// ReplaceSummary swaps the served summary — the replica resync path, wired
// to repl.FollowerConfig.OnSwap: when the primary truncated past the
// follower's resume point, the follower re-bootstraps from a fresh
// snapshot and the server must serve it. The old summary's pipeline is
// drained exactly like a snapshot upload's. Only replicas may swap this
// way; on a writable server the summary swaps only through POST
// /v1/snapshot.
func (s *Server) ReplaceSummary(sum *shard.Summary) error {
	if !s.opts.Replica {
		return errors.New("server: ReplaceSummary is replica-only")
	}
	return s.swap(sum)
}

// Summary returns the summary currently being served. A snapshot upload
// replaces it, so callers persisting state on shutdown must ask the server
// rather than hold the pointer they constructed it with.
func (s *Server) Summary() *shard.Summary { return s.st.Load().sum }

// Pipeline returns the ingest pipeline currently feeding the served
// summary, so operational layers (the background snapshotter, the
// retention loop) can flush and expire through it. With a WAL the pair is
// never swapped.
func (s *Server) Pipeline() *ingest.Pipeline { return s.st.Load().pipe }

// Close drains the ingest pipeline: every batch accepted with 202 is
// applied before Close returns. The summary itself stays open and
// queryable, so a caller persisting state on shutdown closes the server
// first and snapshots Summary() after. Requests racing with Close may see
// 503 on /v1/ingest and /v1/snapshot uploads; everything else keeps
// working. The loop covers a snapshot upload racing with Close: a swapped-
// in pipeline must be drained too, or its accepted edges would miss the
// caller's post-Close snapshot.
func (s *Server) Close() {
	s.closed.Store(true)
	for {
		st := s.st.Load()
		st.pipe.Close()
		if s.st.Load() == st {
			return
		}
	}
}

// Handler returns the HTTP handler implementing the API.
func (s *Server) Handler() http.Handler { return httpapi.Mux(s.routes(), s.opts.Replica) }

// routes is the whole HTTP surface. Method and read-only-replica rejection
// belong to the table (httpapi.Mux); a handler decodes its parameters,
// does its work, and returns what went wrong.
func (s *Server) routes() []httpapi.Route {
	const get, post = http.MethodGet, http.MethodPost
	return []httpapi.Route{
		{Path: "/v1/insert", Method: post, Write: true, Handle: s.admitBatch(true)},
		{Path: "/v1/ingest", Method: post, Write: true, Handle: s.admitBatch(false)},
		{Path: "/v1/flush", Method: post, Write: true, Handle: s.handleFlush},
		{Path: "/v1/expire", Method: post, Write: true, Handle: s.handleExpire},
		{Path: "/v1/delete", Method: post, Write: true, Handle: s.handleDelete},
		{Path: "/v1/stats", Method: get, Handle: s.handleStats},
		{Path: "/v1/snapshot", Method: get, Handle: s.handleSnapshotDownload},
		{Path: "/v1/snapshot", Method: post, Write: true, Handle: s.handleSnapshotUpload},
		{Path: "/v2/query", Method: post, Handle: s.handleQueryBatch},
		{Path: "/healthz", Method: get, Handle: s.handleHealthz},
	}
}

// bodyErr is the failure of reading or decoding a request body: 413 when
// the endpoint's byte cap (http.MaxBytesReader) tripped, else 400 with the
// given code.
func bodyErr(err error, code, format string, args ...any) error {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status, code = http.StatusRequestEntityTooLarge, httpapi.CodeBodyTooLarge
	}
	return httpapi.Errorf(status, code, format, args...)
}

// readJSON reads a request's body, capped at maxBatchBody, and decodes it
// into v.
func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	wb, err := readBody(w, r)
	if err != nil {
		return bodyErr(err, httpapi.CodeBadRequest, "decode: %v", err)
	}
	defer putBody(wb)
	return decodeBody(wb.b, v, "")
}

// decodeBody decodes a JSON body into v: one value, strict about unknown
// fields, and nothing but whitespace after it. what, when set, tells the
// client the shape the body must have.
func decodeBody(body []byte, v any, what string) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return httpapi.Errorf(http.StatusBadRequest, httpapi.CodeBadRequest, "decode: %s%v", what, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return httpapi.Errorf(http.StatusBadRequest, httpapi.CodeBadRequest,
			"decode: %sunexpected data after the JSON value", what)
	}
	return nil
}

var errShuttingDown = httpapi.Errorf(http.StatusServiceUnavailable, httpapi.CodeShuttingDown, "server shutting down")

// pipelineErr maps a Submit, Expire or Delete failure: 429 (with a pacing hint) for
// a full shard queue — nothing was applied or enqueued, so retrying the
// same batch is safe — 503 while shutting down, 500 for a WAL write or
// sync failure (applied in memory, but not crash-durable).
func pipelineErr(op string, err error) error {
	switch {
	case errors.Is(err, ingest.ErrQueueFull):
		return &httpapi.Err{Status: http.StatusTooManyRequests, Code: httpapi.CodeIngestBackpressure,
			Msg: "ingest queue full, retry", RetryAfterMS: 1000}
	case errors.Is(err, ingest.ErrClosed):
		return errShuttingDown
	default:
		return httpapi.Errorf(http.StatusInternalServerError, httpapi.CodeInternal, "%s: %v", op, err)
	}
}

// writeJSON answers 200 with v; headers must be set before WriteHeader
// sends them. An Encode error is a connection-level failure with nothing
// sensible left to do.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

// admitBatch is the one write handler, accepting a JSON array of edges
// through the served pipeline — so on a WAL-backed server the batch is
// logged and fsync'd like any other accepted write, and followers receive
// it. Behind /v1/ingest it answers 202 once the batch is queued: visible
// after the shard's next commit, or at the latest once a later /v1/flush
// returns. Behind /v1/insert (visible) the queued batch is flushed before
// the response, so the answer is 200.
func (s *Server) admitBatch(visible bool) func(http.ResponseWriter, *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		wb, err := readBody(w, r)
		if err != nil {
			return bodyErr(err, httpapi.CodeBadRequest, "decode: %s%v", wantEdges, err)
		}
		defer putBody(wb)
		b, err := decodeBatch(wb.b)
		if err != nil {
			return err
		}
		n := len(b.edges)
		pipe := s.Pipeline() // the Flush must reach the pipeline that queued the batch
		_, err = pipe.Submit(b.edges)
		putBatch(b)
		if err != nil {
			return pipelineErr("ingest", err)
		}
		if !visible {
			writeCount(w, http.StatusAccepted, wb, "accepted", n)
			return nil
		}
		pipe.Flush()
		writeCount(w, http.StatusOK, wb, "inserted", n)
		return nil
	}
}

// handleFlush blocks until every edge accepted (202) before the request is
// applied, then reports the summary's item count. Queries issued after a
// flush returns observe all previously accepted edges.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) error {
	st := s.st.Load()
	st.pipe.Flush()
	writeJSON(w, map[string]int64{"items": st.sum.Items()})
	return nil
}

// handleExpire drops every subtree whose entire time range lies before the
// cutoff — sliding-window retention over the live summary (DESIGN.md §13).
// The expire goes through the ingest pipeline so it is sequenced against
// in-flight 202-accepted batches, and on a WAL-backed deployment it is
// logged and fsync'd before the response: expired edges stay expired
// across a crash. 200 reports the number of leaves reclaimed.
func (s *Server) handleExpire(w http.ResponseWriter, r *http.Request) error {
	var req struct {
		Cutoff int64 `json:"cutoff"`
	}
	if err := readJSON(w, r, &req); err != nil {
		return err
	}
	dropped, err := s.Pipeline().Expire(req.Cutoff)
	if err != nil {
		return pipelineErr("expire", err)
	}
	writeJSON(w, map[string]int64{"dropped": dropped})
	return nil
}

// batchBuf is the reusable decode scratch of the write endpoints. The slice
// keeps its capacity across requests, so a steady stream of similar-sized
// batches decodes without growing it.
//
// Ownership: the buffer belongs to the handler only until Pipeline.Submit
// returns — it copies the edges onward (WAL frame bytes, queue buffers)
// before returning — which is what makes putBatch safe immediately after.
type batchBuf struct {
	edges []stream.Edge
}

var batchPool = sync.Pool{New: func() any { return new(batchBuf) }}

// maxPooledEdges is maxPooledBody for a batch buffer: as many edges as a
// pooled body holds in their shortest canonical spelling.
const maxPooledEdges = maxPooledBody / len(`{"s":0,"d":0,"w":0,"t":0},`)

// putBatch zeroes what the request decoded before pooling the buffer:
// encoding/json decodes into a slice's existing elements in place, so a
// later request's edge that omits a field would otherwise inherit it from
// whatever edge last sat at that index. A buffer past maxPooledEdges is
// left to the collector.
func putBatch(b *batchBuf) {
	if cap(b.edges) > maxPooledEdges {
		return
	}
	clear(b.edges)
	b.edges = b.edges[:0]
	batchPool.Put(b)
}

const wantEdges = "body must be a JSON array of edges: "

// decodeBatch decodes a body holding a JSON array of edges into pooled
// decode scratch: by the scanner when the body is spelled canonically, else
// by encoding/json, which is also what rejects it. The caller must putBatch
// the returned buffer once the batch has been handed to the insert path.
func decodeBatch(body []byte) (*batchBuf, error) {
	b := batchPool.Get().(*batchBuf)
	edges, ok := scanEdges(body, b.edges)
	if ok {
		b.edges = edges
		return b, nil
	}
	clear(edges) // encoding/json fills reused elements in place (see putBatch)
	b.edges = edges[:0]
	if err := decodeBody(body, &b.edges, wantEdges); err != nil {
		putBatch(b)
		return nil, err
	}
	return b, nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	var e stream.Edge
	if err := readJSON(w, r, &e); err != nil {
		return err
	}
	found, err := s.Pipeline().Delete(e)
	if err != nil {
		return pipelineErr("delete", err)
	}
	writeJSON(w, map[string]bool{"deleted": found})
	return nil
}

// admit asks the admission controller (if any) to run a request planning
// the given number of per-shard probes, returning the release callback or
// the 429 to answer. The client key is the peer host, so one tenant's
// token bucket spans its connections but not its ports.
func (s *Server) admit(r *http.Request, probes int) (release func(), err error) {
	ctrl := s.opts.Admission
	if ctrl == nil {
		return func() {}, nil
	}
	client := r.RemoteAddr
	if host, _, err := net.SplitHostPort(client); err == nil {
		client = host
	}
	if release, err = ctrl.Admit(client, probes); err != nil {
		code := httpapi.CodeOverloaded
		if errors.Is(err, admit.ErrRateLimited) {
			code = httpapi.CodeRateLimited
		}
		return nil, &httpapi.Err{Status: http.StatusTooManyRequests, Code: code, Msg: err.Error(),
			RetryAfterMS: max(ctrl.RetryAfter().Milliseconds(), 1)}
	}
	return release, nil
}

// errCode is the envelope code of a query's validation failure.
func errCode(err error) string {
	if code := query.ErrCode(err); code != "" {
		return code
	}
	return httpapi.CodeBadRequest
}

// maxBatchQueries bounds one /v2/query envelope; a larger batch is a
// malformed request, not a bigger lock amortization.
const maxBatchQueries = 65536

// maxBatchBody bounds the /v2/query request body (8 MiB), enforced with
// http.MaxBytesReader before decoding. Every other JSON body (/v1/insert,
// /v1/ingest, /v1/expire, /v1/delete) shares the same cap:
// an edge batch worth more than 8 MiB of JSON should be split, not
// buffered.
const maxBatchBody = 8 << 20

// maxSnapshotBody bounds a POST /v1/snapshot upload (1 GiB). Snapshots are
// compact relative to the streams they summarize, so anything larger is a
// runaway client, not a bigger summary.
const maxSnapshotBody = 1 << 30

// maxBatchProbes bounds what one /v2/query envelope may expand to. Body
// bytes alone do not bound execution cost: a ~45-byte vertex_in item
// plans one probe per shard, so a small body on a many-shard summary
// could plan millions of probes. The planner's cost is counted up front
// with Query.ProbeCount and an over-budget envelope is rejected whole.
const maxBatchProbes = 1 << 20

// batchResult is the JSON representation of one /v2/query answer slot
// other than a scalar weight, which appendAnswers renders directly as
// {"weight":N}: exactly one of weight, Top (analytics kinds) and Error is
// present in a slot. Error slots carry the same stable code vocabulary as
// the endpoint-level envelope, so a client's error handling is uniform
// whether a problem sinks the request or just one item.
type batchResult struct {
	Top   []query.Entry `json:"top,omitempty"`
	Error string        `json:"error,omitempty"`
	Code  string        `json:"code,omitempty"`
}

// handleQueryBatch implements POST /v2/query: a JSON array of queries in
// (the query.Query wire format), an aligned JSON array of per-item answers
// out, the whole batch answered with at most one read-lock acquisition per
// shard (internal/query, DESIGN.md §11). Item-level problems — a malformed
// item, an unknown kind, an inverted window, a too-short path — are
// reported in that item's slot without disturbing its neighbors; 400 is
// returned only when the envelope itself is malformed (not a JSON array,
// or over the batch size limit).
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) error {
	// The body is held whole (the byte cap binds while reading it, before
	// any decode), then decoded into pooled scratch — by the scanner when it
	// is spelled canonically, else by encoding/json — and nothing executes
	// until the envelope has been read to its end, counted against the item
	// cap and budgeted.
	wb, err := readBody(w, r)
	if err != nil {
		return bodyErr(err, httpapi.CodeBadEnvelope, "%s: %v", wantQueries, err)
	}
	defer putBody(wb)
	env := envelopePool.Get().(*envelope)
	defer putEnvelope(env)
	// One state for budgeting, admission, and execution: a concurrent
	// snapshot upload must not let a batch budgeted against few shards
	// execute against many (or be spuriously rejected in the shrink
	// direction), and the cache consulted must be the one bound to the
	// summary that answers.
	st := s.st.Load()
	if !scanEnvelope(wb.b, st, env) {
		env.reset()
		if err := env.decode(wb.b, st); err != nil {
			return err
		}
	}
	if env.probes > maxBatchProbes {
		return httpapi.Errorf(http.StatusBadRequest, httpapi.CodeProbeBudget,
			"batch expands to more than %d per-shard probes; split it", maxBatchProbes)
	}
	release, err := s.admit(r, env.probes)
	if err != nil {
		return err
	}
	defer release()
	results := query.DoBatchWith(st.read, st.analytics(), env.batch)
	// Every item has been decoded out of the body; its buffer takes the answer.
	if wb.b, err = appendAnswers(wb.b[:0], env, results); err != nil {
		return err
	}
	writeWire(w, http.StatusOK, wb)
	return nil
}

const wantQueries = "body must be a JSON array of queries"

// decode is the encoding/json reading of a /v2/query body: what runs on any
// body the scanner has no opinion on, and the only thing that rejects one.
// Both limits bind per element — a body of millions of tiny items is
// rejected at item 65537, not decoded first.
func (e *envelope) decode(body []byte, st *state) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	badEnvelope := func(format string, args ...any) error {
		return httpapi.Errorf(http.StatusBadRequest, httpapi.CodeBadEnvelope, format, args...)
	}
	if tok, err := dec.Token(); err != nil {
		return badEnvelope("%s: %v", wantQueries, err)
	} else if tok != json.Delim('[') {
		return badEnvelope("%s, got %v", wantQueries, tok)
	}
	for dec.More() {
		if len(e.out) >= maxBatchQueries {
			return badEnvelope("batch exceeds the limit of %d queries", maxBatchQueries)
		}
		var q query.Query
		if err := dec.Decode(&q); err != nil {
			// A value of the wrong shape is that item's problem: the
			// decoder read all of it and stands behind it. Bytes that are
			// not JSON, or a body that ended mid-value, sink the envelope.
			var syntax *json.SyntaxError
			if errors.As(err, &syntax) || errors.Is(err, io.ErrUnexpectedEOF) {
				return badEnvelope("query %d: %v", len(e.out), err)
			}
			e.out = append(e.out, batchResult{Error: err.Error(), Code: httpapi.CodeBadRequest})
			continue
		}
		e.add(q, st)
	}
	if _, err := dec.Token(); err != nil { // consume the closing ']'
		return badEnvelope("%s: %v", wantQueries, err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		return badEnvelope("unexpected data after the query array (%v)", tok)
	}
	return nil
}

// MemoryStatus is the heap summary /healthz reports, read from
// runtime.MemStats: live heap (alloc/inuse), lifetime allocation volume
// (total bytes and malloc count — the counters the pooling work drives
// down), and completed GC cycles.
type MemoryStatus struct {
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	HeapInuseBytes  uint64 `json:"heap_inuse_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
	NumGC           uint32 `json:"num_gc"`
}

// readMemory fills a MemoryStatus from runtime.ReadMemStats. The read
// stops the world for ~tens of microseconds — fine at probe cadence, which
// is why it lives in /healthz rather than on a query path.
func readMemory() MemoryStatus {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemoryStatus{
		HeapAllocBytes:  ms.HeapAlloc,
		HeapInuseBytes:  ms.HeapInuse,
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		NumGC:           ms.NumGC,
	}
}

// ReadCacheStatus is the read-cache state /healthz reports (DESIGN.md
// §16): whether a cache fronts the planner, and its hit/miss/eviction/
// occupancy counters when one does.
type ReadCacheStatus struct {
	// Enabled reports whether queries run through a result cache.
	Enabled bool `json:"enabled"`
	rcache.Stats
}

// AdmissionStatus is the admission-control state /healthz reports
// (DESIGN.md §16): whether a controller fronts /v2/query, and its
// per-class budget/queue/shed counters when one does.
type AdmissionStatus struct {
	// Enabled reports whether queries are admission-controlled.
	Enabled bool `json:"enabled"`
	admit.Stats
}

// AnalyticsStatus is the stream-analytics state /healthz reports
// (DESIGN.md §17): whether the engine runs, its configuration and
// tracked-candidate counters when it does.
type AnalyticsStatus struct {
	// Enabled reports whether the analytics engine observes the summary.
	Enabled bool `json:"enabled"`
	analytics.Stats
}

// handleHealthz is the load-balancer probe: 200 with the serving
// configuration, computed without touching a shard lock or a query path,
// so probes stay cheap and never queue behind traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	st := s.st.Load()
	var durability ingest.DurabilityStatus
	if s.opts.Durability != nil {
		durability = s.opts.Durability()
	}
	var retention ingest.RetentionStatus
	if s.opts.Retention != nil {
		retention = s.opts.Retention()
	}
	replication := repl.Status{Role: repl.RoleStandalone}
	if s.opts.Replication != nil {
		replication = s.opts.Replication()
	}
	var readCache ReadCacheStatus
	if st.cache != nil {
		readCache = ReadCacheStatus{Enabled: true, Stats: st.cache.Stats()}
	}
	var admission AdmissionStatus
	if ctrl := s.opts.Admission; ctrl != nil {
		admission = AdmissionStatus{Enabled: true, Stats: ctrl.Stats()}
	}
	var analyticsStatus AnalyticsStatus
	if st.eng != nil {
		analyticsStatus = AnalyticsStatus{Enabled: true, Stats: st.eng.Stats()}
	}
	writeJSON(w, map[string]any{
		"status":         "ok",
		"shards":         st.sum.NumShards(),
		"durability":     durability,
		"retention":      retention,
		"replication":    replication,
		"memory":         readMemory(),
		"read_cache":     readCache,
		"admission":      admission,
		"analytics":      analyticsStatus,
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
		"version":        BuildVersion(),
	})
	return nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, s.Summary().Stats())
	return nil
}

// handleSnapshotDownload serves the sharded binary snapshot. During async
// ingest it holds whatever has been committed; POST /v1/flush first to
// capture everything accepted.
func (s *Server) handleSnapshotDownload(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "application/octet-stream")
	// Once the body has begun, a truncated one is the only failure signal left.
	_, _ = s.Summary().WriteTo(w)
	return nil
}

// handleSnapshotUpload replaces the summary from an uploaded sharded
// snapshot (see shard.Read).
func (s *Server) handleSnapshotUpload(w http.ResponseWriter, r *http.Request) error {
	if s.closed.Load() {
		return errShuttingDown
	}
	if s.opts.Ingest.WAL != nil {
		return httpapi.Errorf(http.StatusConflict, httpapi.CodeWALOwned,
			"snapshot upload disabled: durable state is owned by the write-ahead log (-wal-dir)")
	}
	loaded, err := shard.Read(http.MaxBytesReader(w, r.Body, maxSnapshotBody))
	if err != nil {
		return bodyErr(err, httpapi.CodeBadRequest, "snapshot: %v", err)
	}
	if err := s.swap(loaded); err != nil {
		// The options were validated by Open; a failure here means the
		// uploaded summary cannot carry them.
		return fmt.Errorf("snapshot: %w", err)
	}
	writeJSON(w, map[string]any{
		"loaded": true,
		"items":  loaded.Items(),
		"shards": loaded.NumShards(),
	})
	return nil
}
