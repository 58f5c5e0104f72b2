package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"higgs/internal/shard"
	"higgs/internal/stream"
	"higgs/internal/wal"
)

// Recover replays a write-ahead log into a summary — the boot half of the
// snapshot + WAL-replay recovery design (DESIGN.md §12). The summary is
// either freshly constructed (replay-from-scratch) or loaded from the
// latest snapshot; each record goes through shard.Summary.Mutate in log
// order, and each shard skips every record its durability watermark
// (shard.ShardSeq) already holds — so replay applies exactly the tail each
// shard is missing and never double counts, and a snapshot that already
// reflects an expire on some shards never re-applies it there while the
// remaining shards catch up. Skipping an expire or a delete would
// resurrect what it removed — the bug those record types exist to prevent.
//
// Recover must run after wal.Open and before the log is handed to a
// pipeline (Replay must not race Append). It returns the number of edges
// applied (replayed expires and deletes are not counted).
func Recover(sum *shard.Summary, log *wal.Log) (replayed int64, err error) {
	a := NewApplier(sum)
	if err = log.Replay(a.Apply); err != nil {
		return a.Applied(), fmt.Errorf("ingest: recover: %w", err)
	}
	return a.Applied(), nil
}

// Applier replays a stream of WAL records into a summary — the shared core
// of boot recovery (Recover) and of a replication follower
// (internal/repl). Each shard skips the records at or below its watermark,
// so replaying an overlapping stream — a recovery tail, a re-delivered
// replication chunk after a follower restart — never double-applies a
// record. The applier is not safe for concurrent Apply calls; concurrent
// readers of the summary — queries, Stats and snapshot encodes, all under
// the shard read lock — are fine.
type Applier struct {
	sum     *shard.Summary
	pos     uint64
	primed  bool // a first record arrived; gap-check the ones that follow
	applied int64
}

// NewApplier returns an applier positioned at the summary's lowest shard
// watermark: every record at or below it is applied on every shard, and
// records above it may or may not be, which each shard's skip resolves.
func NewApplier(sum *shard.Summary) *Applier {
	a := &Applier{sum: sum, pos: sum.ShardSeq(0)}
	for i := 1; i < sum.NumShards(); i++ {
		a.pos = min(a.pos, sum.ShardSeq(i))
	}
	return a
}

// Position returns the highest record boundary processed so far — the
// "applied sequence" a follower reports and resumes its live tail from. It
// only ever advances.
func (a *Applier) Position() uint64 { return a.pos }

// Applied returns the number of edges inserted (skipped edges, expires and
// deletes are not counted).
func (a *Applier) Applied() int64 { return a.applied }

// Apply replays one record. After the first record, records must arrive
// in ascending sequence order with no gaps beyond Position (overlap is
// fine and is skipped via the watermarks); a mid-stream gap means the
// stream lost acknowledged records, and Apply refuses it rather than
// build a silently divergent summary. The first record of a stream is
// exempt because a truncated log legitimately starts above an idle
// shard's watermark — the snapshot covers the gap; the stream's producer
// (segment-scan contiguity, or the replication primary's floor check)
// vouches for its own starting point.
func (a *Applier) Apply(rec wal.Record) error {
	if a.primed && rec.FirstSeq > a.pos+1 {
		return fmt.Errorf("ingest: apply: record starts at seq %d, want ≤ %d (gap)", rec.FirstSeq, a.pos+1)
	}
	a.primed = true
	n := a.sum.Mutate(rec.FirstSeq, rec.Mutation)
	if rec.Kind == stream.Insert {
		a.applied += n
	}
	a.pos = max(a.pos, rec.LastSeq())
	return nil
}

// WriteSnapshot writes the summary's snapshot to path atomically: encode
// into a same-directory temp file, fsync it, rename over path, and fsync
// the directory — so a crash mid-snapshot leaves the previous snapshot
// intact and a renamed snapshot is durably the new one. It is the write
// half of the Snapshotter and of higgsd's shutdown path.
func WriteSnapshot(sum *shard.Summary, path string) error {
	return writeSnapshot(sum, path, nil)
}

// writeSnapshot is WriteSnapshot with a commit gate: beforeRename, when
// non-nil, runs once the temp file is durable and before it replaces path,
// and its error abandons the snapshot.
func writeSnapshot(sum *shard.Summary, path string, beforeRename func() error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("ingest: snapshot: %w", err)
	}
	if _, err := sum.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ingest: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ingest: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ingest: snapshot: %w", err)
	}
	if beforeRename != nil {
		if err := beforeRename(); err != nil {
			os.Remove(tmp)
			return fmt.Errorf("ingest: snapshot: %w", err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ingest: snapshot: %w", err)
	}
	wal.SyncDir(filepath.Dir(path))
	return nil
}

// Snapshotter takes periodic background snapshots of a WAL-backed
// pipeline's summary and truncates the log's covered prefix (DESIGN.md
// §12). One snapshot is: record the log's last appended sequence S, flush
// the pipeline (every accepted edge ≤ S becomes applied — Flush never
// blocks admission), write the snapshot atomically, then drop every log
// segment wholly ≤ S. Ingest is never stalled: the flush barrier waits
// without blocking Submit, and the snapshot encoder read-locks one shard
// at a time and seals nothing (a snapshot holds no aggregates), so readers
// run beside it and only that shard's committer waits.
type Snapshotter struct {
	sum      *shard.Summary
	pipe     *Pipeline
	log      *wal.Log
	path     string
	interval time.Duration
	onError  func(error)

	lastSeq  atomic.Uint64
	lastUnix atomic.Int64

	mu      sync.Mutex // serializes Snap against itself and the loop
	stop    chan struct{}
	done    chan struct{}
	started atomic.Bool
	once    sync.Once
}

// NewSnapshotter returns a snapshotter over the pipeline's summary and
// log, writing snapshots to path every interval once Start is called
// (interval ≤ 0 disables the loop; Snap still works on demand). onError,
// when non-nil, observes background snapshot failures; the loop keeps
// running, so a transiently full disk degrades to a longer WAL rather
// than a dead snapshotter.
func NewSnapshotter(sum *shard.Summary, pipe *Pipeline, log *wal.Log, path string, interval time.Duration, onError func(error)) *Snapshotter {
	return &Snapshotter{
		sum:      sum,
		pipe:     pipe,
		log:      log,
		path:     path,
		interval: interval,
		onError:  onError,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the periodic loop. It is a no-op when the interval is
// not positive (Snap still works on demand).
func (s *Snapshotter) Start() {
	if s.interval <= 0 || !s.started.CompareAndSwap(false, true) {
		return
	}
	go s.run()
}

func (s *Snapshotter) run() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.Snap(); err != nil && s.onError != nil {
				s.onError(err)
			}
		case <-s.stop:
			return
		}
	}
}

// Snap takes one snapshot now: flush, write atomically, truncate the
// covered WAL prefix, and record the covered sequence for LastSeq. It is
// safe to call concurrently with the background loop and with live
// ingest.
//
// Committers keep applying records past floor while the encode runs, and
// they apply a record as soon as it is admitted, before its fsync. So the
// new snapshot replaces the old one only once the log is durable through
// everything appended by the end of the encode. Otherwise a power loss
// could leave a snapshot whose watermarks run ahead of the surviving log,
// and the next boot would refuse the pair (New).
func (s *Snapshotter) Snap() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	floor := s.log.LastSeq()
	s.pipe.Flush()
	if err := writeSnapshot(s.sum, s.path, func() error { return s.log.WaitSynced(s.log.LastSeq()) }); err != nil {
		return err
	}
	if _, err := s.log.TruncateThrough(floor); err != nil {
		return err
	}
	s.lastSeq.Store(floor)
	s.lastUnix.Store(time.Now().Unix())
	return nil
}

// Close stops the periodic loop (it does not take a final snapshot — the
// shutdown sequence calls Snap explicitly after draining the pipeline).
// Close is idempotent.
func (s *Snapshotter) Close() {
	s.once.Do(func() { close(s.stop) })
	if s.started.Load() {
		<-s.done
	}
}

// DurabilityStatus is the WAL/snapshot state /healthz reports in its
// "durability" field (DESIGN.md §12). All sequence numbers are WAL
// sequences; 0 means "nothing yet". The zero value is a server with no
// write-ahead log.
type DurabilityStatus struct {
	// WAL reports whether a write-ahead log backs /v1/ingest.
	WAL bool `json:"wal"`
	// AppendedSeq is the last sequence number appended to the log.
	AppendedSeq uint64 `json:"appended_seq,omitempty"`
	// SyncedSeq is the durability frontier: the highest sequence known to
	// be fsync'd. Every 202 response covers a sequence ≤ SyncedSeq.
	SyncedSeq uint64 `json:"synced_seq,omitempty"`
	// Segments is the number of live WAL segment files.
	Segments int `json:"segments,omitempty"`
	// SnapshotSeq is the sequence the latest completed snapshot covers;
	// WAL records at or below it have been (or are about to be) truncated.
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
	// SnapshotUnix is when the latest snapshot completed (Unix seconds).
	SnapshotUnix int64 `json:"snapshot_unix,omitempty"`
}

// Status reports the log's frontiers and the latest completed snapshot.
func (s *Snapshotter) Status() DurabilityStatus {
	return DurabilityStatus{
		WAL:          true,
		AppendedSeq:  s.log.LastSeq(),
		SyncedSeq:    s.log.SyncedSeq(),
		Segments:     s.log.Segments(),
		SnapshotSeq:  s.lastSeq.Load(),
		SnapshotUnix: s.lastUnix.Load(),
	}
}
