// Package ingest implements the asynchronous group-commit admission
// pipeline in front of a shard.Summary (DESIGN.md §9). A synchronous
// shard.Summary.Insert costs one shard write-lock acquisition per edge, so
// a stream arriving as many tiny batches (the shape of small HTTP posts)
// pays lock overhead proportional to the edge count. The pipeline instead
// routes accepted edges into one bounded queue per shard; a committer
// goroutine per shard drains whatever has accumulated and applies it under
// a single lock acquisition (shard.Summary.Apply), so N tiny
// submits cost ~1 lock per shard per drain.
//
// The base contract is admission, not durability: Submit returning nil
// means the edges are accepted and will be applied in order, and a later
// Flush returns only after every previously accepted edge is visible to
// queries. When a shard's queue is full Submit rejects the whole batch with
// ErrQueueFull and applies nothing — backpressure the HTTP layer surfaces
// as 429. Close drains all pending batches before returning, so an orderly
// shutdown never drops accepted edges (close the pipeline before closing
// the summary).
//
// Configuring a write-ahead log (Config.WAL, package wal, DESIGN.md §12)
// upgrades acceptance to durability: Submit appends the batch to the log
// and waits for the covering group fsync before returning, so an accepted
// edge survives a crash, not just an orderly shutdown. Admission then runs
// inside the log's Append — the log's mutex becomes the ordering point, so
// each shard receives its edges in WAL sequence order and the per-shard
// watermarks (shard.Summary.Apply) stay exact. Recovery is
// Recover: load the latest snapshot, replay the log tail, resume.
package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"higgs/internal/shard"
	"higgs/internal/stream"
	"higgs/internal/wal"
)

// ErrQueueFull is returned by Submit when some target shard's queue cannot
// take the batch. Nothing was applied or enqueued; the caller should retry
// after backing off (HTTP surfaces this as 429).
var ErrQueueFull = errors.New("ingest: shard queue full")

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("ingest: pipeline closed")

// Config parameterizes a Pipeline. The zero value of any field selects its
// default, so Config{} is the default configuration.
type Config struct {
	// QueueDepth is the per-shard queue capacity in edges (default 4096).
	// A batch whose run for a shard does not fit is rejected with ErrQueueFull
	// — except into an empty queue, which accepts one oversized run so a
	// batch larger than the queue can never be wedged forever.
	QueueDepth int
	// CommitInterval is how long a committer accumulates after waking on a
	// non-empty queue before applying, trading visibility latency for
	// larger groups. 0 (the default) applies as soon as the committer is
	// free; group commit still amortizes naturally, because edges queue up
	// while the previous drain holds the shard lock. A full queue or a
	// Flush cuts the accumulation short.
	CommitInterval time.Duration
	// WAL, when non-nil, is the write-ahead log every batch is appended to
	// — and group-fsync'd — before Submit accepts it, so accepted edges
	// survive a crash (DESIGN.md §12). The pipeline uses the log but does
	// not own it: the caller opens it before New (typically after replaying
	// it with Recover) and closes it after Close.
	WAL *wal.Log
}

// DefaultConfig returns the default pipeline configuration.
func DefaultConfig() Config {
	return Config{QueueDepth: 4096}
}

// withDefaults resolves zero fields to their defaults.
func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultConfig().QueueDepth
	}
	return c
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.QueueDepth < 0 {
		return fmt.Errorf("ingest: QueueDepth = %d, need ≥ 0", c.QueueDepth)
	}
	if c.CommitInterval < 0 {
		return fmt.Errorf("ingest: CommitInterval = %v, need ≥ 0", c.CommitInterval)
	}
	return nil
}

// queue is one shard's admission buffer. enqueued/applied are cumulative
// edge counts; their difference is the backlog, and Flush waits on applied
// reaching a snapshot of enqueued (cond broadcasts on every drain).
type queue struct {
	mu       sync.Mutex
	cond     *sync.Cond // signals applied advancing
	buf      []stream.Edge
	spare    []stream.Edge // recycled backing array for the next buf
	enqueued uint64
	applied  uint64
	// walSeq is the WAL sequence number of the newest edge in buf (0 under
	// the null log). Enqueue order is sequence order per shard (the WAL's
	// deliver callback runs under the log mutex), so walSeq is exactly the
	// watermark the whole buffer advances the shard to when a drain
	// applies it.
	walSeq uint64
	// urgent asks the committer to skip its accumulation window on the
	// next drain. Set (under mu) by Flush; a kick alone is not enough,
	// because a kick sent while one is already pending is dropped, and the
	// pending one may be consumed by the committer's idle wait rather than
	// its accumulation wait.
	urgent bool
	// kick wakes the committer: sent (capacity 1, non-blocking) when the
	// buffer becomes non-empty, reaches capacity, or a Flush wants the
	// accumulation window cut short. At-least-once semantics: a dropped
	// kick means one is already pending.
	kick chan struct{}
}

func newQueue() *queue {
	q := &queue{kick: make(chan struct{}, 1)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) kickCommitter() {
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// admitLog is what the pipeline needs of a write-ahead log: sequence a
// record, run the deliver callback that admits it while admission is
// still serialized, and wait for the record to be durable. *wal.Log is
// the durable implementation; nullLog stands in when Config.WAL is nil, so
// the pipeline has one admission path and never asks which it holds.
type admitLog interface {
	AppendRecord(rec wal.Record, deliver func(firstSeq uint64) error) (lastSeq uint64, err error)
	WaitSynced(seq uint64) error
}

// nullLog is "no WAL": nothing is recorded, so nothing has a sequence
// number (every seq is 0, which the shard watermarks ignore), admission is
// not serialized (exactly as concurrent Submits without a log never were),
// and there is nothing to wait for.
type nullLog struct{}

func (nullLog) AppendRecord(_ wal.Record, deliver func(uint64) error) (uint64, error) {
	return 0, deliver(0)
}
func (nullLog) WaitSynced(uint64) error { return nil }

// Pipeline is an asynchronous group-commit front end over a shard.Summary.
// It is safe for concurrent use by multiple goroutines.
type Pipeline struct {
	sum    *shard.Summary
	cfg    Config
	log    admitLog // Config.WAL, or nullLog when durability is not configured
	queues []*queue // one per shard
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
	once   sync.Once

	// applyHook, when non-nil, runs in the committer just before each
	// group is applied, with the group. Test-only: set after New and before
	// the first Submit (the kick channel orders the write before any
	// committer read).
	applyHook func(shard int, edges []stream.Edge)
}

// New returns a pipeline over the summary and starts one committer
// goroutine per shard. The pipeline does not own the summary: Close drains
// the queues but leaves the summary open. With a WAL, New refuses a
// summary with a shard watermark above the log's last sequence number.
func New(sum *shard.Summary, cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		sum:  sum,
		cfg:  cfg.withDefaults(),
		log:  nullLog{},
		stop: make(chan struct{}),
	}
	if cfg.WAL != nil {
		// Every sequence number the log issues from here on lies above
		// LastSeq, and a shard skips any at or below its watermark as a
		// replay: over a summary ahead of its log (a snapshot from another
		// directory), the committers and every later recovery would skip
		// acknowledged edges without an error.
		last := cfg.WAL.LastSeq()
		for i := range sum.NumShards() {
			if w := sum.ShardSeq(i); w > last {
				return nil, fmt.Errorf("ingest: shard %d holds sequence numbers through %d, but the write-ahead log ends at %d: the snapshot does not belong to this log", i, w, last)
			}
		}
		p.log = cfg.WAL
		// The log owns the durable state from here on: any direct write
		// to the summary would be silently undone by crash recovery, so arm
		// the guard that forces every write through the pipeline.
		sum.MarkWALOwned()
	}
	p.queues = make([]*queue, sum.NumShards())
	for i := range p.queues {
		p.queues[i] = newQueue()
	}
	p.wg.Add(len(p.queues))
	for i := range p.queues {
		go p.committer(i)
	}
	return p, nil
}

// Pending returns the number of accepted edges not yet applied.
func (p *Pipeline) Pending() int64 {
	var n int64
	for _, q := range p.queues {
		q.mu.Lock()
		n += int64(q.enqueued - q.applied)
		q.mu.Unlock()
	}
	return n
}

// Submit admits a batch of stream items into the queues of the shards it
// targets: the edges are visible to queries after each shard's next commit,
// or at the latest after Flush. On ErrQueueFull or ErrClosed nothing was
// enqueued. With a WAL configured, Submit returns only after the batch's
// log record is fsync'd, so a nil error also means the batch survives a
// crash.
//
// The bool is false for every batch: the committers are the only appliers,
// so no Submit returns with its edges already visible (a caller that needs
// that follows it with Flush). The result shape is frozen: benchmark/
// compiles against it (frozen_test.go).
//
// The batch is enqueued inside the log's append — with a WAL that is under
// the log mutex, so per-shard admission order is WAL sequence order. A full
// queue aborts the append before any record is written, so a 429'd batch
// leaves nothing to replay. A log write or sync failure is returned after
// the enqueue: the edges are admitted for this process's lifetime but will
// not survive a crash, and the log's sticky error makes every later Submit
// fail the same way.
//
// Ordering: batches submitted sequentially by one goroutine are applied to
// each shard in submission order. Batches submitted concurrently by
// different goroutines have no defined order, exactly as concurrent
// InsertBatch calls do not.
func (p *Pipeline) Submit(edges []stream.Edge) (bool, error) {
	if len(edges) == 0 {
		return false, nil
	}
	return false, p.admit(stream.Mutation{Kind: stream.Insert, Edges: edges}, func(first uint64) error {
		return p.sum.Route(first, edges, p.enqueue)
	})
}

// admit is the one admission body under Submit, Expire and Delete: refuse
// after Close, append m's record — deliver runs inside the append, at the
// record's sequence position, and its error aborts the append — then wait
// for the covering group fsync.
func (p *Pipeline) admit(m stream.Mutation, deliver func(seq uint64) error) error {
	if p.closed.Load() {
		return ErrClosed
	}
	last, err := p.log.AppendRecord(wal.Record{Mutation: m}, deliver)
	if err != nil {
		return err
	}
	return p.log.WaitSynced(last)
}

// fits reports whether a run of n edges may enter the queue: it fits
// within QueueDepth, or the queue is empty (one oversized run is always
// admissible, so batches larger than the queue cannot starve forever).
func (p *Pipeline) fits(q *queue, n int) bool {
	return len(q.buf) == 0 || len(q.buf)+n <= p.cfg.QueueDepth
}

// enqueue admits a routed batch (shard.Summary.Route) all-or-nothing:
// the involved queues are locked in ascending shard order (deadlock-free
// against concurrent multi-shard submits), capacity is checked for every
// run, and only then is anything appended. A rejected batch leaves no
// partial state, so a 429 retry cannot double-insert. seqs carries each
// run's highest WAL sequence number and advances the queues' walSeq marks.
// It copies the runs into the queue buffers and retains nothing of them.
//
// A committer is kicked only on its queue's empty→non-empty transition
// (an edge appended to a non-empty buffer is covered by the pending kick,
// or by the drain that must serialize after this append to empty the
// buffer) and at capacity, so a stream of tiny submits pays one channel
// send per drain, not per edge. The kick is sent under the queue lock; it
// never blocks.
func (p *Pipeline) enqueue(runs [][]stream.Edge, seqs []uint64) error {
	unlock := func() {
		for i, run := range runs {
			if len(run) > 0 {
				p.queues[i].mu.Unlock()
			}
		}
	}
	for i, run := range runs {
		if len(run) > 0 {
			p.queues[i].mu.Lock()
		}
	}
	if p.closed.Load() {
		unlock()
		return ErrClosed
	}
	for i, run := range runs {
		if len(run) > 0 && !p.fits(p.queues[i], len(run)) {
			unlock()
			return ErrQueueFull
		}
	}
	for i, run := range runs {
		if len(run) == 0 {
			continue
		}
		q := p.queues[i]
		wasEmpty := len(q.buf) == 0
		q.buf = append(q.buf, run...)
		q.enqueued += uint64(len(run))
		q.walSeq = max(q.walSeq, seqs[i])
		if wasEmpty || len(q.buf) >= p.cfg.QueueDepth {
			q.kickCommitter()
		}
		q.mu.Unlock()
	}
	return nil
}

// committer is shard i's drain loop: wake on a kick, optionally accumulate
// for CommitInterval (cut short by a full queue, a Flush, or shutdown),
// then apply everything buffered under one shard lock acquisition.
func (p *Pipeline) committer(i int) {
	defer p.wg.Done()
	q := p.queues[i]
	for {
		select {
		case <-q.kick:
		case <-p.stop:
			p.drain(i)
			return
		}
		if iv := p.cfg.CommitInterval; iv > 0 && !p.commitDue(q) {
			t := time.NewTimer(iv)
			select {
			case <-t.C:
			case <-q.kick:
				t.Stop()
			case <-p.stop:
				t.Stop()
			}
		}
		p.drain(i)
	}
}

// commitDue reports whether the queue warrants an immediate drain — at or
// beyond capacity, or a Flush barrier waiting — making an accumulation
// sleep pointless (or, for a flush, harmful).
func (p *Pipeline) commitDue(q *queue) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.urgent || len(q.buf) >= p.cfg.QueueDepth
}

// drain applies everything buffered for shard i under one lock acquisition
// and advances the applied counter (waking Flush waiters).
func (p *Pipeline) drain(i int) {
	q := p.queues[i]
	q.mu.Lock()
	if len(q.buf) == 0 {
		// Spurious wake (flush of an already-drained queue, stale kick):
		// leave the buffers alone so the ping-pong pair survives.
		q.urgent = false
		q.mu.Unlock()
		return
	}
	edges := q.buf
	seq := q.walSeq // the buffer's newest edge: enqueue order is seq order
	q.buf = q.spare
	q.spare = nil
	q.urgent = false
	q.mu.Unlock()
	if h := p.applyHook; h != nil {
		h(i, edges)
	}
	p.sum.Apply(i, seq, stream.Mutation{Kind: stream.Insert, Edges: edges})
	q.mu.Lock()
	q.applied += uint64(len(edges))
	// Recycle the drained backing array: the two arrays ping-pong between
	// buf and spare, so a steady stream settles into zero allocations. The
	// array behind an oversized batch (admitted into an empty queue, so
	// len exceeds QueueDepth) is dropped instead — recycling it would pin
	// batch-sized memory per shard for the pipeline's lifetime. Gate on
	// len, not cap: append growth overshoots QueueDepth on organically
	// filled buffers, and those must keep recycling.
	if len(edges) <= p.cfg.QueueDepth {
		q.spare = edges[:0]
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Flush blocks until every edge accepted before the call is applied and
// visible to queries — the barrier behind the HTTP /v1/flush endpoint. It
// kicks each committer so a pending accumulation window does not delay the
// barrier, and it does not wait for edges accepted concurrently with or
// after the call. Flush never blocks Submit: admission proceeds while the
// barrier waits.
func (p *Pipeline) Flush() {
	// Mark and kick every shard before waiting on any, so the committers
	// drain in parallel and barrier latency is the slowest shard, not the
	// sum of all of them.
	targets := make([]uint64, len(p.queues))
	for i, q := range p.queues {
		q.mu.Lock()
		targets[i] = q.enqueued
		if q.applied < targets[i] {
			q.urgent = true
		}
		q.mu.Unlock()
		q.kickCommitter()
	}
	for i, q := range p.queues {
		q.mu.Lock()
		for q.applied < targets[i] {
			q.cond.Wait()
		}
		q.mu.Unlock()
	}
}

// Expire drops every subtree whose entire time range lies before cutoff
// (sliding-window retention, DESIGN.md §13) and returns the number of
// leaves reclaimed. The pipeline is the ONLY correct expire entry point on
// a summary it feeds: Expire sequences the operation against in-flight
// batches so "expired" has one well-defined meaning — every edge admitted
// before the call is expirable, every edge admitted after is not.
//
// With a WAL configured the expire is durable: it is admitted under the
// log's mutex (so it receives its own sequence number, totally ordered
// against every edge batch), a per-shard flush barrier applies everything
// admitted before it, the expire itself advances each shard's durability
// watermark, and an expire control record is appended and group-fsync'd
// before Expire returns — crash recovery replays it at exactly its point
// in the stream, so expired edges stay expired. Under the null log the
// same steps flush and expire in process memory at sequence 0, the
// guarantee every other accepted mutation has.
//
// Expire returns ErrClosed after Close has begun. A WAL write or sync
// failure is returned after the in-memory expire applied: the summary is
// expired for this process's lifetime, but the log is sticky-failed and
// recovery would resurrect the expired edges — callers should surface the
// error rather than acknowledge the expire.
func (p *Pipeline) Expire(cutoff int64) (dropped int64, err error) {
	return p.rewrite(stream.Mutation{Kind: stream.Expire, Cutoff: cutoff})
}

// Delete removes one previously inserted item, reporting whether a matching
// entry was found. It is Expire's sibling and makes the same promises: the
// delete is sequenced against in-flight batches (an edge accepted before
// the call is applied, and so deletable, before the delete runs — even
// while it still sits in a committer's queue), it advances the owning
// shard's watermark, and with a WAL it is a durable record that recovery
// and followers replay at exactly its point in the stream. Errors are
// Expire's.
func (p *Pipeline) Delete(e stream.Edge) (found bool, err error) {
	n, err := p.rewrite(stream.Mutation{Kind: stream.Delete, Edge: e})
	return n > 0, err
}

// rewrite is Expire's and Delete's one body. m is admitted like a batch,
// but applied inside deliver: under the log mutex no batch can be
// admitted, so every admitted edge has a lower sequence number, the flush
// barrier applies them all, and m lands in exact sequence position.
func (p *Pipeline) rewrite(m stream.Mutation) (n int64, err error) {
	err = p.admit(m, func(seq uint64) error {
		p.Flush()
		n = p.sum.Mutate(seq, m)
		return nil
	})
	return n, err
}

// Close stops admission (further Submits return ErrClosed), drains every
// queue — accepted edges are applied, never dropped — and stops the
// committers. The summary is left open and queryable; Close is idempotent
// and safe to call concurrently.
func (p *Pipeline) Close() {
	p.once.Do(func() {
		p.closed.Store(true)
		close(p.stop)
	})
	p.wg.Wait()
}
