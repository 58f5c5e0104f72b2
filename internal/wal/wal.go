// Package wal implements the segmented, fsync-batched write-ahead log that
// gives the ingest pipeline durability beyond the process lifetime
// (DESIGN.md §12). The async pipeline of package ingest 202-accepts edges
// that otherwise live only in queue memory; appending every accepted batch
// to the log — and group-syncing the segment before the accept is reported
// — makes a crash recoverable: on restart the latest snapshot is loaded and
// the log tail is replayed through the same per-shard apply primitive the
// committers use.
//
// # Layout and format
//
// A log is a directory of segment files named by the sequence number of
// their first record ("%020d.wal"). Each segment starts with a small header
// (magic + version) followed by records. A record is a fixed-width length
// and CRC32 over a varint payload. A payload opens with a record type — an
// edge batch (the batch's first sequence number, the edge count, and the
// edges themselves), an expire control record (its own sequence number and
// the retention cutoff) or a delete (its own sequence number and the edge
// to remove). A segment whose header names any other frame version is
// refused. Records never span segments; when the active segment exceeds
// Config.SegmentBytes it is flushed, synced, closed, and a new one begins.
//
// There is one of each: AppendRecord is the only append path and
// writeFrameLocked the only place a frame is written; ReadFrames is the
// only place one is parsed — Open's scan, Replay, ReadFrom and a
// replication follower all decode through it — and what ReadFrom hands the
// replication primary is the segment's own bytes. The log mutex, too, is
// taken in one place: every critical section is a locked closure.
//
// # Sequence numbers
//
// Every appended edge receives a global sequence number (the first is 1;
// 0 means "nothing"), and an expire or delete record consumes one sequence
// number of its own. AppendRecord assigns them under the log's mutex and
// invokes the caller's deliver callback under that same mutex, so the
// order in which records reach the log IS sequence order — the
// property snapshot recovery relies on: each shard applies its records in
// ascending sequence, so a per-shard watermark (shard.Summary.ShardSeq)
// cleanly splits "in the snapshot" from "replay me". Sequencing expires
// and deletes like edges is what makes them crash-safe: replay reproduces
// each at exactly the point of the stream it originally ran at.
//
// # Durability
//
// Append buffers the record; it becomes durable at the next group sync,
// which the syncer goroutine performs as soon as the log is dirty (or on
// Config.SyncInterval's cadence). Callers wait for their record with
// WaitSynced — many concurrent appenders share one fsync, the classic group
// commit. A write or sync failure is sticky: every later Append, WaitSynced
// and Sync reports it, so a log on a failing disk degrades loudly rather
// than silently dropping its durability guarantee.
//
// # Crash repair
//
// Open scans every segment. A torn or corrupt record at the tail of the
// last segment — the shape an interrupted write leaves — is repaired by
// truncating the segment after its last intact record. Corruption anywhere
// else is a hard error: the log refuses to open rather than silently skip
// acknowledged writes.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"higgs/internal/stream"
	"higgs/internal/wire"
)

const (
	walMagic = 0x4857414c // "HWAL"

	// walVersion is the only frame version read or written: payloads open
	// with the record type distinguishing edge batches from expire control
	// records. (Version 1, untyped edge batches, never left development.)
	walVersion = 2

	// frameHeadLen is the fixed-width record frame: 4-byte little-endian
	// payload length followed by 4-byte CRC32 (IEEE) of the payload.
	frameHeadLen = 8

	// maxRecordBytes guards the scanner against a corrupt length prefix
	// allocating unbounded memory; it also bounds one Append's batch.
	maxRecordBytes = 1 << 26

	// segmentSuffix names segment files; the stem is the %020d-formatted
	// sequence number of the segment's first record.
	segmentSuffix = ".wal"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Record is one log record: a mutation and the sequence number it was
// logged at. FirstSeq is the sequence number of Edges[0] for an insert,
// or the record's own (single) sequence number for an expire or a delete;
// AppendRecord assigns it. The mutation's Kind is the payload's
// record-type byte, and a Finalize is never logged. Edges is valid only
// for the duration of the callback a reader hands the record to.
type Record struct {
	stream.Mutation
	FirstSeq uint64
}

// LastSeq returns the highest sequence number the record covers.
func (r Record) LastSeq() uint64 {
	if r.Kind == stream.Insert {
		return r.FirstSeq + uint64(len(r.Edges)) - 1
	}
	return r.FirstSeq
}

// Config parameterizes a log. The zero value of any field selects its
// default.
type Config struct {
	// Dir is the directory holding the segments (created if missing).
	Dir string
	// SegmentBytes is the rotation threshold: when the active segment
	// reaches it, the segment is synced and closed and a new one begins
	// (default 64 MiB). Smaller segments truncate at a finer grain after a
	// snapshot; the per-segment overhead is one small header.
	SegmentBytes int64
	// SyncInterval is the group-sync cadence: how long the syncer waits
	// after waking before flushing and fsyncing, letting concurrent appends
	// pile into one sync. 0 (the default) syncs as soon as the log is
	// dirty; group commit still amortizes naturally, because appends queue
	// up while the previous fsync is in flight. It bounds how long an
	// acknowledgement waits for its fsync, so it is a separate knob from
	// the ingest commit interval (higgsd wires -wal-sync-interval here).
	SyncInterval time.Duration
}

// withDefaults resolves zero fields to their defaults.
func (c Config) withDefaults() Config {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 64 << 20
	}
	return c
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.Dir == "" {
		return errors.New("wal: Dir must be set")
	}
	if c.SyncInterval < 0 {
		return fmt.Errorf("wal: SyncInterval = %v, need ≥ 0", c.SyncInterval)
	}
	return nil
}

// segment is one live segment file, identified by its first sequence
// number. Segments are held in ascending firstSeq order; the last is the
// active one.
type segment struct {
	path     string
	firstSeq uint64
}

// Log is a segmented write-ahead log of stream edges. It is safe for
// concurrent use by multiple goroutines.
type Log struct {
	cfg Config

	// mu serializes appends, rotation, truncation, and — because deliver
	// callbacks run under it — defines the global sequence order. It is
	// taken only by locked.
	mu       sync.Mutex
	segs     []segment
	f        *os.File
	bw       *bufio.Writer
	size     int64  // bytes in the active segment
	gen      uint64 // bumped on rotation, so the syncer can tell its file was retired
	nextSeq  uint64 // next sequence number to assign
	appended uint64 // last sequence number with a written record
	enc      []byte // the frame being appended, reused; l.mu serializes it
	err      error  // sticky write/sync failure
	closed   bool

	// syncMu guards the durability frontier; syncCond broadcasts whenever
	// synced advances or the log fails/closes.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	synced   uint64
	syncErr  error

	dirty chan struct{} // kicks the syncer; capacity 1, at-least-once
	stop  chan struct{}
	done  chan struct{}
}

// Open opens (creating if necessary) the log in cfg.Dir, scans every
// segment, repairs a torn tail on the last one, and positions the log to
// append after the highest intact record. Open starts the syncer; the
// caller owns the log and must Close it.
func Open(cfg Config) (*Log, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		cfg:     cfg,
		segs:    segs,
		nextSeq: 1,
		dirty:   make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	l.syncCond = sync.NewCond(&l.syncMu)
	if len(segs) > 0 {
		l.nextSeq = segs[0].firstSeq
		for i, sg := range segs {
			tail, next, err := scanSegment(sg.path, l.nextSeq, nil)
			var m malformed
			switch {
			case err == nil:
			case !errors.As(err, &m) || m == badHeader:
				return nil, err
			case i != len(segs)-1:
				return nil, fmt.Errorf("%w (not the last segment, refusing to repair)", err)
			default:
				if err := repairTail(sg.path, tail); err != nil {
					return nil, err
				}
			}
			l.nextSeq = next
		}
		l.appended = l.nextSeq - 1
		l.synced = l.appended // everything scanned is on disk
		// Re-open the last segment for appending.
		f, err := os.OpenFile(segs[len(segs)-1].path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.bw, l.size = f, bufio.NewWriterSize(f, 1<<16), size
	} else {
		// Nothing contends yet; the section keeps newSegmentLocked's contract.
		l.locked(func() { err = l.newSegmentLocked() })
		if err != nil {
			return nil, err
		}
	}
	go l.syncer()
	return l, nil
}

// locked runs fn holding l.mu: the log's one critical section, and the
// only place l.mu is locked. Every *Locked method runs inside one, and
// lock_test.go holds that nothing in one blocks.
func (l *Log) locked(fn func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fn()
}

// listSegments returns the directory's segments in ascending firstSeq
// order, rejecting malformed names that end in the segment suffix.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != segmentSuffix {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 10, 64)
		if err != nil || first == 0 {
			return nil, fmt.Errorf("wal: unrecognized segment name %q", name)
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), firstSeq: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	for i := 1; i < len(segs); i++ {
		if segs[i].firstSeq == segs[i-1].firstSeq {
			return nil, fmt.Errorf("wal: duplicate segment first-seq %d", segs[i].firstSeq)
		}
	}
	return segs, nil
}

// header is the encoded segment header: what every segment file and every
// /repl/wal response body opens with.
var header = binary.AppendUvarint(binary.AppendUvarint(nil, walMagic), walVersion)

// Header returns a copy of the header a record stream opens with; the
// replication primary writes it ahead of the frames ReadFrom hands it.
func Header() []byte { return bytes.Clone(header) }

// newSegmentLocked creates and switches to a fresh segment starting at
// nextSeq. Caller holds l.mu.
func (l *Log) newSegmentLocked() error {
	path := filepath.Join(l.cfg.Dir, fmt.Sprintf("%020d%s", l.nextSeq, segmentSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(header); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: %w", err)
	}
	SyncDir(l.cfg.Dir)
	l.segs = append(l.segs, segment{path: path, firstSeq: l.nextSeq})
	l.f, l.bw, l.size = f, bufio.NewWriterSize(f, 1<<16), int64(len(header))
	l.gen++
	return nil
}

// repairTail truncates a torn last segment after its last intact record.
// A tail shorter than the segment header (an interrupted segment creation)
// is rebuilt as header-only.
func repairTail(path string, tail int64) error {
	if tail >= int64(len(header)) {
		if err := os.Truncate(path, tail); err != nil {
			return fmt.Errorf("wal: repair %s: %w", path, err)
		}
		return nil
	}
	if err := os.WriteFile(path, header, 0o644); err != nil {
		return fmt.Errorf("wal: repair %s: %w", path, err)
	}
	return nil
}

// rotateLocked flushes, syncs, and closes the active segment and opens the
// next one. Everything appended so far becomes durable as a side effect.
// Caller holds l.mu.
func (l *Log) rotateLocked() {
	if err := l.bw.Flush(); err != nil {
		l.err = err
		return
	}
	// The one fsync under l.mu, allowed by name in lock_test.go.
	if err := l.f.Sync(); err != nil {
		l.err = err
		return
	}
	if err := l.f.Close(); err != nil {
		l.err = err
		return
	}
	durable := l.appended
	if err := l.newSegmentLocked(); err != nil {
		l.err = err
		return
	}
	l.advanceSynced(durable, nil)
}

// advanceSynced moves the durability frontier (or records a sync failure)
// and wakes WaitSynced callers.
func (l *Log) advanceSynced(seq uint64, err error) {
	l.syncMu.Lock()
	if err != nil && l.syncErr == nil {
		l.syncErr = err
	}
	if err == nil && seq > l.synced {
		l.synced = seq
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
}

// AppendRecord is the one append body. It assigns rec its sequence numbers
// — FirstSeq..FirstSeq+len(Edges)-1 for an edge batch, one for an expire
// or a delete — invokes deliver(firstSeq) — still under the log's mutex, so
// delivery order is sequence order and every record is totally ordered
// against every other — and, if deliver succeeds, writes one frame holding
// the record. A deliver error aborts the append: no record is written and
// no sequence numbers are consumed, so a rejected batch (ingest's
// ErrQueueFull backpressure) leaves no trace to replay. deliver may be nil.
// An empty edge batch appends nothing; an unknown record type is refused.
//
// The record is buffered; it is durable only after a sync covering the
// returned sequence number — wait with WaitSynced before acknowledging it
// to a client. A write failure is sticky and is returned (the record was
// delivered but will not survive a crash; callers should surface the
// error rather than acknowledge).
func (l *Log) AppendRecord(rec Record, deliver func(firstSeq uint64) error) (lastSeq uint64, err error) {
	l.locked(func() { lastSeq, err = l.appendLocked(rec, deliver) })
	return lastSeq, err
}

// appendLocked is AppendRecord's body. Caller holds l.mu.
func (l *Log) appendLocked(rec Record, deliver func(firstSeq uint64) error) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	// The one well-formedness check: what passes it is what ReadFrames
	// accepts, so no reader ever meets a frame it must refuse.
	switch {
	case rec.Kind < stream.Insert || rec.Kind > stream.Delete:
		return 0, fmt.Errorf("wal: unknown record type %d", rec.Kind)
	case rec.Kind == stream.Insert && len(rec.Edges) == 0:
		return l.appended, nil
	}
	rec.FirstSeq = l.nextSeq
	last := rec.LastSeq()

	// Encode — and size-check — BEFORE delivering: a rejected batch must
	// leave no trace anywhere, and a delivered batch must consume its
	// sequence numbers. Admitting first and rejecting after would let two
	// batches share sequences, corrupting the watermark invariant. The
	// payload goes after room for its frame head, so the frame is one write.
	l.enc = appendPayload(append(l.enc[:0], make([]byte, frameHeadLen)...), rec)
	if n := len(l.enc) - frameHeadLen; n > maxRecordBytes {
		// Not sticky: the log is intact, the batch is just too large.
		return 0, fmt.Errorf("wal: batch encodes to %d bytes, limit %d", n, maxRecordBytes)
	}
	if deliver != nil {
		if err := deliver(rec.FirstSeq); err != nil {
			return 0, err
		}
	}
	return last, l.writeFrameLocked(l.enc, last)
}

// writeFrameLocked is the one frame writer: it fills in frame's head —
// the length and CRC of the payload after it — writes the frame to the
// active segment, and advances the log to last, rotating and kicking the
// syncer as needed. Caller holds l.mu; a write failure is sticky.
func (l *Log) writeFrameLocked(frame []byte, last uint64) error {
	payload := frame[frameHeadLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	if _, err := l.bw.Write(frame); err != nil {
		l.err = err
		return err
	}
	l.size += int64(len(frame))
	l.nextSeq = last + 1
	l.appended = last
	if l.size >= l.cfg.SegmentBytes {
		l.rotateLocked()
	}
	l.kick()
	return l.err
}

// Append is AppendRecord for an edge batch. Its signature is frozen:
// benchmark/ compiles against it (frozen_test.go).
func (l *Log) Append(edges []stream.Edge, deliver func(firstSeq uint64) error) (lastSeq uint64, err error) {
	return l.AppendRecord(Record{Mutation: stream.Mutation{Kind: stream.Insert, Edges: edges}}, deliver)
}

// kick wakes the syncer (at-least-once; a dropped send means one is already
// pending).
func (l *Log) kick() {
	select {
	case l.dirty <- struct{}{}:
	default:
	}
}

// syncer is the group-commit loop: wake on dirt, optionally accumulate for
// SyncInterval, then flush + fsync once for everything appended so far.
func (l *Log) syncer() {
	defer close(l.done)
	for {
		select {
		case <-l.dirty:
		case <-l.stop:
			l.syncNow()
			return
		}
		if iv := l.cfg.SyncInterval; iv > 0 {
			t := time.NewTimer(iv)
			select {
			case <-t.C:
			case <-l.stop:
				t.Stop()
			}
		}
		l.syncNow()
	}
}

// syncNow makes everything appended so far durable: flush the buffer under
// the mutex, fsync outside it (so appends keep flowing into the buffer),
// then advance the durability frontier. A rotation racing the fsync may
// close the captured file under us; that is benign — rotation itself synced
// the file's full contents — so a sync error is fatal only if the file is
// still the active one.
func (l *Log) syncNow() {
	var target, gen uint64
	var f *os.File
	var err error
	l.locked(func() {
		if err = l.err; err != nil {
			return
		}
		target, gen, f = l.appended, l.gen, l.f
		if err = l.bw.Flush(); err != nil {
			l.err = err
		}
	})
	if err != nil {
		l.advanceSynced(0, err)
		return
	}
	if target == 0 || f == nil {
		return
	}
	if err := f.Sync(); err != nil {
		stale := false
		l.locked(func() {
			stale = gen != l.gen
			if !stale && l.err == nil {
				l.err = err
			}
		})
		if !stale {
			l.advanceSynced(0, err)
			return
		}
		// Rotated away mid-sync: the rotation's own sync covered target.
	}
	l.advanceSynced(target, nil)
}

// WaitSynced blocks until every record up to and including seq is durable
// (fsync'd), returning the log's sticky error if syncing failed before
// reaching seq. A record that did become durable reports success even if
// the log failed or closed afterwards — its durability is a fact, and a
// spurious error would make callers retry (and double-ingest) an edge the
// next recovery will replay. seq 0 returns immediately.
func (l *Log) WaitSynced(seq uint64) error {
	if seq == 0 {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	for l.synced < seq && l.syncErr == nil {
		l.syncCond.Wait()
	}
	if l.synced >= seq {
		return nil
	}
	return l.syncErr
}

// Sync forces a group sync of everything appended so far and waits for it.
func (l *Log) Sync() error {
	var closed bool
	var target uint64
	l.locked(func() { closed, target = l.closed, l.appended })
	if closed {
		return ErrClosed
	}
	l.kick()
	return l.WaitSynced(target)
}

// LastSeq returns the sequence number of the last appended record's final
// edge (0 if nothing was ever appended).
func (l *Log) LastSeq() (last uint64) {
	l.locked(func() { last = l.appended })
	return last
}

// SyncedSeq returns the durability frontier: the highest sequence number
// known to be on disk.
func (l *Log) SyncedSeq() uint64 {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.synced
}

// Segments returns the number of live segment files.
func (l *Log) Segments() (n int) {
	l.locked(func() { n = len(l.segs) })
	return n
}

// TruncateThrough removes whole segments whose every record has sequence
// number ≤ seq — the disposal rule after a snapshot covering seq lands
// durably. The active segment is never removed, so the log always accepts
// appends. It returns the number of segments removed.
func (l *Log) TruncateThrough(seq uint64) (removed int, err error) {
	l.locked(func() {
		if l.closed {
			err = ErrClosed
			return
		}
		// Segment i's records all precede segment i+1's first, so segment i
		// is wholly covered iff segs[i+1].firstSeq ≤ seq+1.
		for len(l.segs) >= 2 && l.segs[1].firstSeq <= seq+1 {
			if err = os.Remove(l.segs[0].path); err != nil {
				err = fmt.Errorf("wal: truncate: %w", err)
				return
			}
			l.segs = l.segs[1:]
			removed++
		}
		if removed > 0 {
			SyncDir(l.cfg.Dir)
		}
	})
	return removed, err
}

// Replay streams every record to fn in sequence order: edge batches,
// expires and deletes interleaved exactly as they were appended (the
// Record's edge slice is valid only for the call). Replay reads the
// segment files directly, so it must not run concurrently with Append;
// recovery calls it after Open and before handing the log to an ingest
// pipeline. A fn error aborts the replay and is returned.
func (l *Log) Replay(fn func(Record) error) error {
	var segs []segment
	var err error
	l.locked(func() {
		if l.closed {
			err = ErrClosed
		} else if err = l.bw.Flush(); err != nil { // make buffered appends visible to the scan
			l.err = err
		} else {
			segs = slices.Clone(l.segs)
		}
	})
	if err != nil {
		return err
	}
	// Open repaired the tail, so any malformation met now is real.
	return walk(segs, 0, math.MaxUint64, func(rec Record, _ []byte) error { return fn(rec) })
}

// Close stops the syncer (performing a final group sync) and closes the
// active segment. Close is idempotent.
func (l *Log) Close() (err error) {
	var wasClosed bool
	l.locked(func() { wasClosed, l.closed = l.closed, true })
	if wasClosed {
		<-l.done
		return nil
	}
	close(l.stop)
	<-l.done
	l.locked(func() {
		err = l.err
		if l.f != nil {
			if cerr := l.f.Close(); cerr != nil && err == nil {
				err = cerr
			}
			l.f = nil
		}
		l.advanceSynced(0, ErrClosed) // wake any remaining waiters
	})
	return err
}

// errStopWalk ends a walk at its frontier.
var errStopWalk = errors.New("wal: stop walk")

// walk is the one segment walk, under Replay and ReadFrom alike: it hands
// fn, in sequence order, every record (and its raw frame) of segs whose
// last sequence number lies in (after, frontier]. It never parses a record
// beyond the frontier, and malformed bytes past it are a racing appender's
// in-flight frame, not corruption; at or below it they are an error.
func walk(segs []segment, after, frontier uint64, fn func(Record, []byte) error) error {
	for _, sg := range segs {
		if sg.firstSeq > frontier {
			break
		}
		_, next, err := scanSegment(sg.path, sg.firstSeq, func(rec Record, frame []byte) error {
			if rec.LastSeq() > frontier {
				return errStopWalk
			}
			if rec.LastSeq() <= after {
				return nil
			}
			return fn(rec, frame)
		})
		var m malformed
		if errors.Is(err, errStopWalk) || (errors.As(err, &m) && next > frontier) {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// scanSegment reads one segment file through ReadFrames, adding the check
// only a segment can make — sequence contiguity: the first record must
// start at expect, each next one where the last ended. It returns the byte
// offset after the last intact record, the next expected sequence number,
// and what stopped the scan: nil at a clean end, a malformed class (see
// errors.As) where the bytes stop being frames — callers decide whether
// that is a repairable torn tail or fatal corruption — or a hard error.
func scanSegment(path string, expect uint64, fn func(Record, []byte) error) (tail int64, next uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, expect, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	next = expect
	tail, err = ReadFrames(f, func(rec Record, frame []byte) error {
		if rec.FirstSeq != next {
			return fmt.Errorf("wal: segment %s: record starts at seq %d, want %d", path, rec.FirstSeq, next)
		}
		if fn != nil {
			if err := fn(rec, frame); err != nil {
				return err
			}
		}
		next = rec.LastSeq() + 1
		return nil
	})
	var m malformed
	if errors.As(err, &m) {
		err = fmt.Errorf("wal: segment %s: %w", path, err)
	}
	return tail, next, err
}

// appendPayload appends rec's payload (record-type prefix included) to b:
// unsigned varints, zigzag (binary.AppendVarint) for the signed fields.
func appendPayload(b []byte, rec Record) []byte {
	b = binary.AppendUvarint(b, uint64(rec.Kind))
	b = binary.AppendUvarint(b, rec.FirstSeq)
	switch rec.Kind {
	case stream.Insert:
		b = binary.AppendUvarint(b, uint64(len(rec.Edges)))
		for _, e := range rec.Edges {
			b = appendEdge(b, e)
		}
	case stream.Expire:
		b = binary.AppendVarint(b, rec.Cutoff)
	case stream.Delete:
		b = appendEdge(b, rec.Edge)
	}
	return b
}

// appendEdge and getEdge are an edge's one spelling inside a payload.
func appendEdge(b []byte, e stream.Edge) []byte {
	b = binary.AppendUvarint(b, e.S)
	b = binary.AppendUvarint(b, e.D)
	b = binary.AppendVarint(b, e.W)
	return binary.AppendVarint(b, e.T)
}

func getEdge(p *wire.Reader) stream.Edge {
	return stream.Edge{S: p.U64(), D: p.U64(), W: p.I64(), T: p.I64()}
}

// decodeRecord parses one record payload, which opens with its Kind,
// in place: an edge batch's edges are decoded into buf's backing array
// (grown if it is too small), which the record's Edges then shares. An
// edge takes at least four bytes, so a batch claiming more edges than the
// rest of the payload can hold is refused before anything is sized by its
// count. Bytes after the record are ignored.
func decodeRecord(b []byte, buf []stream.Edge) (Record, error) {
	p := wire.NewReader(b)
	var rec Record
	rec.Kind, rec.FirstSeq = stream.Kind(p.U64()), p.U64()
	switch rec.Kind {
	case stream.Insert:
		n := p.U64()
		if p.Err() == nil && (n == 0 || n > uint64(p.Len())/4) {
			return Record{}, fmt.Errorf("record header out of range (count=%d, %d bytes left)", n, p.Len())
		}
		rec.Edges = slices.Grow(buf[:0], int(n))[:n]
		for i := range rec.Edges {
			rec.Edges[i] = getEdge(&p)
		}
	case stream.Expire:
		rec.Cutoff = p.I64()
	case stream.Delete:
		rec.Edge = getEdge(&p)
	default:
		if p.Err() == nil {
			return Record{}, fmt.Errorf("unknown record type %d", uint8(rec.Kind))
		}
	}
	if err := p.Err(); err != nil {
		return Record{}, fmt.Errorf("record type %d: %w", uint8(rec.Kind), err)
	}
	if rec.FirstSeq == 0 {
		return Record{}, fmt.Errorf("record type %d: sequence 0", uint8(rec.Kind))
	}
	return rec, nil
}

// SyncDir best-effort fsyncs a directory so file creations, removals, and
// renames inside it are themselves durable; platforms that reject
// directory fsync are tolerated. The snapshot writer (ingest.WriteSnapshot)
// shares it for its rename step.
func SyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
