// Replication read side of the log (DESIGN.md §15): a bounded, concurrent-
// safe record reader (ReadFrom) plus the stream framing the primary ships
// to followers. The stream format IS the version-2 segment format — header
// then CRC-framed typed payloads — so every byte a follower decodes is a
// byte the WAL's own scanner (and fuzz targets) already cover.

package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"
	"time"

	"higgs/internal/wire"
)

// ErrTruncated reports that records a reader asked for were removed by
// TruncateThrough (they are covered by a snapshot). A follower receiving
// it must re-fetch a snapshot before resuming the tail.
var ErrTruncated = errors.New("wal: requested records truncated (snapshot required)")

// errStopScan aborts a ReadFrom segment scan at the capture frontier.
var errStopScan = errors.New("wal: stop scan")

// FirstSeq returns the sequence number of the oldest retained record — the
// log's replication floor. Records below it were truncated after a
// covering snapshot. An empty (or fully truncated) log returns the next
// sequence to be assigned, so FirstSeq may exceed LastSeq by one.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].firstSeq
}

// ReadFrom streams, in sequence order, every durable record whose last
// sequence number lies in (after, frontier], where the frontier is the
// durability frontier at the time of the call, capped at upTo when upTo is
// nonzero. It returns the frontier it read up to. Unlike Replay, ReadFrom
// is safe to run concurrently with Append: it never parses bytes beyond
// the captured frontier, and every frame at or below that frontier is
// fully on disk (records become durable only after a completed flush +
// fsync). The Record's edge slice is valid only for the duration of fn.
//
// ReadFrom returns ErrTruncated when records in (after, frontier] were
// already truncated away; the caller must recover from a snapshot. A fn
// error aborts the read and is returned.
func (l *Log) ReadFrom(after, upTo uint64, fn func(Record) error) (frontier uint64, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	segs := make([]segment, len(l.segs))
	copy(segs, l.segs)
	l.mu.Unlock()

	frontier = l.SyncedSeq()
	if upTo != 0 && upTo < frontier {
		frontier = upTo
	}
	if frontier <= after {
		return frontier, nil
	}
	if segs[0].firstSeq > after+1 {
		return frontier, ErrTruncated
	}
	// Start at the last segment that can contain sequence after+1; earlier
	// segments hold only records the reader has already consumed.
	start := 0
	for i, sg := range segs {
		if sg.firstSeq <= after+1 {
			start = i
		}
	}
	for _, sg := range segs[start:] {
		if sg.firstSeq > frontier {
			break
		}
		_, next, corrupt, err := scanSegment(sg.path, sg.firstSeq, func(rec Record) error {
			if rec.LastSeq() > frontier {
				return errStopScan
			}
			if rec.LastSeq() <= after {
				return nil
			}
			return fn(rec)
		})
		if err == errStopScan {
			return frontier, nil
		}
		if err != nil {
			return frontier, err
		}
		if corrupt != nil {
			if next > frontier {
				// Torn bytes past the durability frontier are a racing
				// appender's in-flight frame, not corruption.
				return frontier, nil
			}
			return frontier, fmt.Errorf("wal: segment %s: %w", sg.path, corrupt)
		}
	}
	return frontier, nil
}

// WaitSyncedBeyond blocks until the durability frontier exceeds seq, the
// timeout elapses, or the log fails/closes, and returns the frontier it
// observed last. It is the long-poll primitive of the replication primary:
// a follower that has consumed everything durable parks here instead of
// busy-polling ReadFrom.
func (l *Log) WaitSyncedBeyond(seq uint64, timeout time.Duration) uint64 {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced > seq || l.syncErr != nil || timeout <= 0 {
		return l.synced
	}
	var expired atomic.Bool
	t := time.AfterFunc(timeout, func() {
		expired.Store(true)
		l.syncCond.Broadcast()
	})
	defer t.Stop()
	for l.synced <= seq && l.syncErr == nil && !expired.Load() {
		l.syncCond.Wait()
	}
	return l.synced
}

// StreamWriter frames records onto w in the exact byte layout of a
// version-2 segment: the segment header followed by CRC-framed typed
// payloads. The replication primary writes its /repl/wal response body
// through it.
type StreamWriter struct {
	w    io.Writer
	enc  bytes.Buffer
	encW *wire.Writer
}

// NewStreamWriter writes the stream header and returns a writer for the
// records that follow it.
func NewStreamWriter(w io.Writer) (*StreamWriter, error) {
	if _, err := w.Write(headerBytes()); err != nil {
		return nil, err
	}
	sw := &StreamWriter{w: w}
	sw.encW = wire.NewWriter(&sw.enc)
	return sw, nil
}

// Write frames one record. The record must be well formed (a known type;
// edge batches non-empty) — the same invariants Append enforces — so that
// the receiving decoder never sees a frame it must refuse.
func (sw *StreamWriter) Write(rec Record) error {
	switch rec.Type {
	case RecordEdges:
		if len(rec.Edges) == 0 {
			return errors.New("wal: stream: empty edge batch")
		}
	case RecordExpire:
	default:
		return fmt.Errorf("wal: stream: unknown record type %d", uint8(rec.Type))
	}
	if rec.FirstSeq == 0 {
		return errors.New("wal: stream: record without a sequence number")
	}
	sw.enc.Reset()
	sw.encW.Reset(&sw.enc)
	encodeRecordPayload(sw.encW, rec)
	if err := sw.encW.Flush(); err != nil {
		return err
	}
	payload := sw.enc.Bytes()
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("wal: stream: record encodes to %d bytes, limit %d", len(payload), maxRecordBytes)
	}
	var head [frameHeadLen]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:8], crc32.ChecksumIEEE(payload))
	if _, err := sw.w.Write(head[:]); err != nil {
		return err
	}
	_, err := sw.w.Write(payload)
	return err
}

// StreamReader decodes a record stream written by StreamWriter. The
// follower reads its /repl/wal response body through it.
type StreamReader struct {
	br      *bufio.Reader
	payload []byte
	started bool
	err     error
}

// NewStreamReader returns a reader over r. The header is validated on the
// first Next call, so an empty body (zero bytes — a long-poll that timed
// out before the header was written never happens, but a closed connection
// can yield one) reads as a clean empty stream.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next record, or io.EOF at a clean end of stream (a
// frame boundary). Any other error — torn frame, checksum mismatch,
// undecodable payload — means the stream cannot be trusted past this
// point; the error is sticky. A returned record's Edges slice is valid
// only until the following Next call.
func (sr *StreamReader) Next() (Record, error) {
	if sr.err != nil {
		return Record{}, sr.err
	}
	fail := func(err error) (Record, error) {
		sr.err = err
		return Record{}, err
	}
	if !sr.started {
		hdr := headerBytes()
		got := make([]byte, len(hdr))
		if _, err := io.ReadFull(sr.br, got); err != nil {
			if err == io.EOF {
				return fail(io.EOF)
			}
			return fail(errors.New("wal: stream: truncated header"))
		}
		if !bytes.Equal(got, hdr) {
			return fail(errors.New("wal: stream: bad header"))
		}
		sr.started = true
	}
	var head [frameHeadLen]byte
	if _, err := io.ReadFull(sr.br, head[:]); err != nil {
		if err == io.EOF {
			return fail(io.EOF)
		}
		return fail(errors.New("wal: stream: torn record frame"))
	}
	n := binary.LittleEndian.Uint32(head[0:4])
	sum := binary.LittleEndian.Uint32(head[4:8])
	if n == 0 || n > maxRecordBytes {
		return fail(fmt.Errorf("wal: stream: record length %d out of range", n))
	}
	if cap(sr.payload) < int(n) {
		sr.payload = make([]byte, n)
	}
	sr.payload = sr.payload[:n]
	if _, err := io.ReadFull(sr.br, sr.payload); err != nil {
		return fail(errors.New("wal: stream: torn record payload"))
	}
	if crc32.ChecksumIEEE(sr.payload) != sum {
		return fail(errors.New("wal: stream: record checksum mismatch"))
	}
	rec, err := decodeRecord(sr.payload)
	if err != nil {
		return fail(fmt.Errorf("wal: stream: %w", err))
	}
	return rec, nil
}
