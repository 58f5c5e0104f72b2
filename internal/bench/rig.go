package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"higgs/internal/ingest"
	"higgs/internal/metrics"
	"higgs/internal/shard"
	"higgs/internal/stream"
	"higgs/internal/wal"
)

// walBatch is the submission batch size of every durable run. One WAL
// record (and one group-fsync wait) per batch keeps the gates' fsync count
// CI-friendly while still exercising many records per segment.
const walBatch = 512

// smallSegments is the WAL segment size of the runs that snapshot
// mid-stream, so the snapshot has whole segments to drop.
const smallSegments = 1 << 16

// expirePoint is one interleaved retention point of a feed: once the
// first `at` edges of the stream are submitted, everything wholly before
// cutoff is expired.
type expirePoint struct {
	at     int
	cutoff int64
}

// rig is the durable stack every WAL-backed gate scenario runs on: a
// scratch directory holding the log and (once snap ran) a snapshot, a
// summary, and a pipeline admitting through both. Its methods are the
// scenario vocabulary — feed, snap, crashRecover here; attach and kill on
// the replication gate's followers — so what a crash or a snapshot is has
// one definition for the walrecovery, retention and replication gates.
type rig struct {
	dir  string
	cfg  shard.Config
	wcfg wal.Config
	log  *wal.Log
	sum  *shard.Summary
	pipe *ingest.Pipeline

	dropped int64 // leaves reclaimed by feed's expire points
}

// newRig boots an empty rig. The segment size (0: the log's default) is the
// only thing scenarios vary.
func newRig(cfg shard.Config, segmentBytes int64) (*rig, error) {
	dir, err := os.MkdirTemp("", "higgs-bench-*")
	if err != nil {
		return nil, err
	}
	r := &rig{dir: dir, cfg: cfg, wcfg: wal.Config{Dir: dir, SegmentBytes: segmentBytes}}
	if r.sum, err = shard.New(cfg); err == nil {
		err = r.openLog()
	}
	if err == nil {
		r.pipe, err = ingest.New(r.sum, ingest.Config{
			QueueDepth: 1024, CommitInterval: 100 * time.Microsecond, WAL: r.log,
		})
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// openLog (re)opens the directory's log.
func (r *rig) openLog() (err error) {
	r.log, err = wal.Open(r.wcfg)
	return err
}

// close tears down whatever is up — orderly, so it is not a crash — and
// removes the directory.
func (r *rig) close() {
	if r.pipe != nil {
		r.pipe.Close()
	}
	if r.log != nil {
		r.log.Close()
	}
	os.RemoveAll(r.dir)
}

func (r *rig) snapshotPath() string { return filepath.Join(r.dir, "snapshot.higgs") }

// feed submits st[lo:hi] as walBatch-sized batches from a single producer,
// retrying full queues, and after each batch fires every expire point the
// cursor just crossed. Two runs fed the same ranges and points therefore
// assign every edge and every expire the same WAL sequence number — also
// when one of them splits the range, as long as it splits on a batch
// boundary.
func (r *rig) feed(st stream.Stream, lo, hi int, exps []expirePoint) error {
	for ; lo < hi; lo += walBatch {
		end := min(lo+walBatch, hi)
		if err := submitRetry(r.pipe, st[lo:end]); err != nil {
			return err
		}
		for _, x := range exps {
			if lo < x.at && x.at <= end {
				d, err := r.pipe.Expire(x.cutoff)
				if err != nil {
					return fmt.Errorf("expire at %d: %w", x.at, err)
				}
				r.dropped += d
			}
		}
	}
	return nil
}

// snap takes one snapshot and truncates the covered WAL prefix, exactly
// like the production background snapshotter.
func (r *rig) snap() error {
	before := r.log.Segments()
	if err := ingest.NewSnapshotter(r.sum, r.pipe, r.log, r.snapshotPath(), 0, nil).Snap(); err != nil {
		return fmt.Errorf("mid-stream snapshot: %w", err)
	}
	// The active segment can never be dropped, so the truncation rule is
	// only observable once the log spans several segments.
	if after := r.log.Segments(); before > 1 && after >= before {
		return fmt.Errorf("snapshot left %d of %d segments: covered prefix not truncated", after, before)
	}
	return nil
}

// crashRecover abandons the served state — no flush, no orderly close of
// the summary's queues — and reboots from the directory alone: reopened
// log, the latest snapshot or an empty summary, ingest.Recover. (The Close
// calls only reclaim goroutines and the file handle; every accepted batch
// and expire was fsync'd before its Submit/Expire returned, so the
// directory is exactly what a hard kill would leave.) It returns the edges
// replayed and how long the replay took; the rig then holds the recovered
// summary and no pipeline.
func (r *rig) crashRecover() (replayed int64, took time.Duration, err error) {
	r.pipe.Close()
	r.pipe, r.sum = nil, nil
	if err := r.log.Close(); err != nil {
		return 0, 0, err
	}
	if err := r.openLog(); err != nil {
		return 0, 0, err
	}
	f, err := os.Open(r.snapshotPath())
	switch {
	case os.IsNotExist(err): // crashed before any snapshot
		r.sum, err = shard.New(r.cfg)
	case err == nil:
		r.sum, err = shard.Read(f)
		f.Close()
	}
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	replayed, err = ingest.Recover(r.sum, r.log)
	return replayed, time.Since(start), err
}

// summaryBytes serializes a summary, finalized first when the run is over.
// Without finalizing, a live primary and its replica stay comparable
// mid-stream. Either way the bytes cover the per-shard watermarks, so
// equality is sequence equality, not just tree equality.
func summaryBytes(s *shard.Summary, finalize bool) ([]byte, error) {
	if finalize {
		s.Finalize()
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// cleanReference is what every durable scenario must equal byte for byte:
// the same feed with an orderly close — every accepted edge applied by the
// pipeline that accepted it, nothing replayed. It runs through a WAL too,
// so both sides assign identical sequence numbers and the comparison covers
// the watermarks. It also returns the leaves the expire points reclaimed.
func cleanReference(cfg shard.Config, st stream.Stream, exps []expirePoint) (snap []byte, dropped int64, err error) {
	r, err := newRig(cfg, 0)
	if err != nil {
		return nil, 0, err
	}
	defer r.close()
	if err := r.feed(st, 0, len(st), exps); err != nil {
		return nil, 0, err
	}
	r.pipe.Close()
	snap, err = summaryBytes(r.sum, true)
	return snap, r.dropped, err
}

// crashRecovery feeds the stream and its expire points through a
// WAL-backed pipeline, crashes, recovers, and fails unless the recovered
// summary byte-equals ref. With midSnapshot one background snapshot lands
// mid-stream, so recovery is snapshot + WAL tail instead of a full replay:
// the covered segments must be gone, covered expires must not apply twice
// and the tail's must still run. The snapshot sits on the first batch
// boundary past 5/8 of the stream — between the second and third of
// retention's expire points — because the reference's batches must line
// up with ours. It returns the replay throughput in edges/s.
func crashRecovery(cfg shard.Config, st stream.Stream, exps []expirePoint, midSnapshot bool, ref []byte) (float64, error) {
	r, err := newRig(cfg, smallSegments)
	if err != nil {
		return 0, err
	}
	defer r.close()
	from := 0
	if midSnapshot {
		from = min((5*len(st)/8+walBatch-1)/walBatch*walBatch, len(st))
		if err := r.feed(st, 0, from, exps); err != nil {
			return 0, err
		}
		if err := r.snap(); err != nil {
			return 0, err
		}
	}
	if err := r.feed(st, from, len(st), exps); err != nil {
		return 0, err
	}
	replayed, took, err := r.crashRecover()
	if err != nil {
		return 0, err
	}
	if midSnapshot && (replayed == 0 || replayed >= int64(len(st))) {
		return 0, fmt.Errorf("replayed %d edges; want a strict tail of %d", replayed, len(st))
	}
	if got := r.sum.Items(); got != int64(len(st)) {
		return 0, fmt.Errorf("recovered %d items, want %d", got, len(st))
	}
	snap, err := summaryBytes(r.sum, true)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(snap, ref) {
		return 0, fmt.Errorf("recovered snapshot diverges from the clean run (%d vs %d bytes)", len(snap), len(ref))
	}
	return metrics.Throughput(replayed, took), nil
}
