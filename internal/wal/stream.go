// The read side of the log: the one frame parser (ReadFrames) and the
// bounded, concurrent-safe reader the replication primary serves from
// (ReadFrom, DESIGN.md §15). The stream format IS the version-2 segment
// format — header then CRC-framed typed payloads — literally: the primary
// ships the byte ranges of its segment files, and a follower parses them
// with the function Open scans segments with, so every byte a follower
// decodes is a byte the WAL's own fuzz targets cover.

package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"

	"higgs/internal/stream"
)

// ErrTruncated reports that records a reader asked for were removed by
// TruncateThrough (they are covered by a snapshot). A follower receiving
// it must re-fetch a snapshot before resuming the tail.
var ErrTruncated = errors.New("wal: requested records truncated (snapshot required)")

// FirstSeq returns the sequence number of the oldest retained record — the
// log's replication floor. Records below it were truncated after a
// covering snapshot. An empty (or fully truncated) log returns the next
// sequence to be assigned, so FirstSeq may exceed LastSeq by one.
func (l *Log) FirstSeq() (first uint64) {
	l.locked(func() { first = l.segs[0].firstSeq })
	return first
}

// ReadFrom streams, in sequence order, every durable record whose last
// sequence number lies in (after, frontier], where the frontier is the
// durability frontier at the time of the call, capped at upTo when upTo is
// nonzero. It returns the frontier it read up to. fn receives each record
// and its raw frame — length, CRC and payload exactly as the segment file
// holds them, so writing Header() and then every frame reproduces a byte
// range of the log that ReadFrames decodes. Unlike Replay, ReadFrom is
// safe to run concurrently with Append: it never parses bytes beyond the
// captured frontier, and every frame at or below that frontier is fully on
// disk (records become durable only after a completed flush + fsync). The
// record's edge slice and the frame are valid only for the duration of fn.
//
// ReadFrom returns ErrTruncated when records in (after, frontier] were
// already truncated away; the caller must recover from a snapshot. A fn
// error aborts the read and is returned.
func (l *Log) ReadFrom(after, upTo uint64, fn func(rec Record, frame []byte) error) (frontier uint64, err error) {
	var closed bool
	var segs []segment
	l.locked(func() { closed, segs = l.closed, slices.Clone(l.segs) })
	if closed {
		return 0, ErrClosed
	}
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
	return frontier, walk(segs[start:], after, frontier, fn)
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
	// The timer takes syncMu around its store and Broadcast: between the
	// loop check and Wait the waiter holds syncMu, so the wakeup cannot
	// fall into that gap and be lost.
	expired := false
	t := time.AfterFunc(timeout, func() {
		l.syncMu.Lock()
		expired = true
		l.syncCond.Broadcast()
		l.syncMu.Unlock()
	})
	defer t.Stop()
	for l.synced <= seq && l.syncErr == nil && !expired {
		l.syncCond.Wait()
	}
	return l.synced
}

// malformed is the class of damage at which a byte stream stops being
// frames. Every reader meets the same classes because there is one parser;
// what a class means — a torn tail to repair, corruption to refuse, a
// response to retry — is the caller's call.
type malformed string

func (m malformed) Error() string { return string(m) }

const (
	shortHeader malformed = "truncated segment header" // fewer bytes than a header: an interrupted segment creation
	badHeader   malformed = "bad header (not a version-2 segment)"
	tornFrame   malformed = "torn record frame"
	frameLength malformed = "record length out of range"
	tornPayload malformed = "torn record payload"
	badChecksum malformed = "record checksum mismatch"
	badPayload  malformed = "undecodable record payload"
)

// ReadFrames is the one frame parser: it reads the header and then every
// frame from r — a segment file or a /repl/wal response body — handing fn
// each decoded record with its raw frame (both valid only for the call).
// It returns the byte offset after the last frame fn accepted, and nil at
// a clean end of stream (a frame boundary), fn's error, or the malformed
// class (errors.As) that stopped it; the stream cannot be trusted past
// that offset.
func ReadFrames(r io.Reader, fn func(rec Record, frame []byte) error) (off int64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	switch got, _ := br.Peek(len(header)); {
	case len(got) < len(header):
		return 0, shortHeader
	case !bytes.Equal(got, header):
		return 0, badHeader
	}
	br.Discard(len(header)) // cannot fail: Peek just buffered these bytes
	off = int64(len(header))
	// One frame buffer and one edge buffer serve every frame: each record
	// is decoded in place, and neither outlives the call it is handed to.
	frame := make([]byte, frameHeadLen)
	var edges []stream.Edge
	for {
		frame = frame[:frameHeadLen]
		if _, err := io.ReadFull(br, frame); err != nil {
			if err == io.EOF {
				return off, nil
			}
			return off, tornFrame
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		if n == 0 || n > maxRecordBytes {
			return off, fmt.Errorf("%w: %d", frameLength, n)
		}
		if frame, err = readPayload(br, frame, int(n)); err != nil {
			return off, tornPayload
		}
		payload := frame[frameHeadLen:]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:8]) {
			return off, badChecksum
		}
		rec, err := decodeRecord(payload, edges)
		if err != nil {
			return off, fmt.Errorf("%w: %v", badPayload, err)
		}
		if rec.Edges != nil {
			edges = rec.Edges
		}
		if err := fn(rec, frame); err != nil {
			return off, err
		}
		off += int64(len(frame))
	}
}

// readPayload appends the n payload bytes that follow a frame head to
// frame. The buffer grows as bytes arrive, at most doubling a step, so a
// head that claims more than the stream holds costs about what the stream
// held, not what the head claimed.
func readPayload(r io.Reader, frame []byte, n int) ([]byte, error) {
	want := len(frame) + n
	for len(frame) < want {
		if len(frame) == cap(frame) {
			frame = slices.Grow(frame, min(want-len(frame), max(len(frame), 4<<10)))
		}
		end := min(want, cap(frame))
		if _, err := io.ReadFull(r, frame[len(frame):end]); err != nil {
			return frame, err
		}
		frame = frame[:end]
	}
	return frame, nil
}
