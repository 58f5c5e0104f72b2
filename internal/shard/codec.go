package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"higgs/internal/core"
	"higgs/internal/wire"
)

// Sharded snapshot format: a thin frame around the core snapshot codec.
// After the magic, version, and shard count, each shard follows as its
// durability watermark (the WAL sequence plumbing of DESIGN.md §12) plus
// the shard's complete core snapshot as one length-prefixed byte string,
// so shards decode independently and the frame never needs to understand
// core's layout. Any other frame version is refused (version 1, without
// watermarks, never left development).
const (
	snapshotMagic   = 0x48494753 // "HIGS" (core snapshots start "HIGG")
	snapshotVersion = 2
)

// WriteTo serializes the sharded summary. Each shard is encoded under its
// write lock (core's AppendSnapshot seals pending aggregates —
// answer-neutral, so it is not a mutate op and bumps no version) together
// with its durability watermark — the pair is captured atomically, so a
// snapshot taken during live WAL-backed ingest is per-shard consistent: the
// frame holds exactly the edges its watermark claims. Shards not being
// encoded continue ingesting. One shard's frame is in memory at a time.
// WriteTo implements io.WriterTo.
func (s *Summary) WriteTo(w io.Writer) (int64, error) {
	var frame wire.Writer
	frame.U64(snapshotMagic)
	frame.U64(snapshotVersion)
	frame.Int(len(s.slots))
	var blob []byte
	var written int64
	for i, sl := range s.slots {
		sl.mu.Lock()
		frame.U64(sl.seq)
		blob = sl.sum.AppendSnapshot(blob[:0])
		sl.mu.Unlock()
		frame.Bytes(blob)
		n, err := w.Write(frame)
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("shard: write shard %d: %w", i, err)
		}
		frame = frame[:0]
	}
	return written, nil
}

// Read deserializes a summary written by Summary.WriteTo. It streams the
// frame shard by shard, reading each shard's core snapshot into one buffer
// reused across shards and decoding it in place. Anything else — a bare
// core snapshot included — is refused.
func Read(r io.Reader) (*Summary, error) {
	br := bufio.NewReader(r)
	var magic, version, n uint64
	if err := readUvarints(br, &magic, &version, &n); err != nil {
		return nil, fmt.Errorf("shard: read snapshot header: %w", err)
	}
	switch {
	case magic != snapshotMagic:
		return nil, fmt.Errorf("shard: bad sharded snapshot magic: got %d, want %d", magic, snapshotMagic)
	case version != snapshotVersion:
		return nil, fmt.Errorf("shard: unsupported snapshot version %d (want %d)", version, snapshotVersion)
	case n < 1 || n > MaxShards:
		return nil, fmt.Errorf("shard: snapshot shard count %d out of range 1..%d", n, MaxShards)
	}
	slots := make([]*slot, n)
	var blob bytes.Buffer
	for i := range slots {
		var seq, size uint64
		err := readUvarints(br, &seq, &size)
		if err == nil {
			// blob grows as the bytes arrive: a length prefix alone sizes
			// nothing, and one beyond the input fails at its end.
			blob.Reset()
			_, err = io.CopyN(&blob, br, int64(min(size, math.MaxInt64)))
		}
		if err != nil {
			return nil, fmt.Errorf("shard: read shard %d frame: %w", i, err)
		}
		cs, err := core.Decode(blob.Bytes())
		if err == nil && i > 0 && cs.Config() != slots[0].sum.Config() {
			err = errors.New("config differs from shard 0")
		}
		if err != nil {
			return nil, fmt.Errorf("shard: decode shard %d: %w", i, err)
		}
		slots[i] = newSlot(cs, seq)
	}
	return assemble(Config{Shards: len(slots), Core: slots[0].sum.Config()}, slots), nil
}

// readUvarints reads one unsigned varint from br into each of dst.
func readUvarints(br io.ByteReader, dst ...*uint64) (err error) {
	for _, p := range dst {
		if *p, err = binary.ReadUvarint(br); err != nil {
			return err
		}
	}
	return nil
}
