package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

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

	// maxShardSnapshot guards the decoder against corrupted length
	// prefixes allocating unbounded memory.
	maxShardSnapshot = 1<<31 - 1
)

// WriteTo serializes the sharded summary. Each shard is encoded under its
// write lock (core's WriteTo seals pending aggregates — answer-neutral, so
// it is not a mutate op and bumps no version) together with its
// durability watermark — the pair is captured atomically, so a snapshot
// taken during live WAL-backed ingest is per-shard consistent: the frame
// holds exactly the edges its watermark claims. Shards not being encoded
// continue ingesting. WriteTo implements io.WriterTo.
func (s *Summary) WriteTo(w io.Writer) (int64, error) {
	ww := wire.NewWriter(w)
	ww.U64(snapshotMagic)
	ww.U64(snapshotVersion)
	ww.Int(len(s.slots))
	var buf bytes.Buffer
	for i, sl := range s.slots {
		buf.Reset()
		sl.mu.Lock()
		seq := sl.seq
		_, err := sl.sum.WriteTo(&buf)
		sl.mu.Unlock()
		if err != nil {
			return ww.Written(), fmt.Errorf("shard: encode shard %d: %w", i, err)
		}
		ww.U64(seq)
		ww.Bytes(buf.Bytes())
	}
	err := ww.Flush()
	return ww.Written(), err
}

// Read deserializes a summary written by Summary.WriteTo. For
// compatibility it also accepts a bare (unsharded) core snapshot, which
// loads as a one-shard summary, so snapshots taken before sharding existed
// keep working.
func Read(r io.Reader) (*Summary, error) {
	br := bufio.NewReader(r)
	if !sniffSharded(br) {
		cs, err := core.Read(br)
		if err != nil {
			return nil, err
		}
		return Adopt(cs), nil
	}
	rr := wire.NewReader(br)
	rr.Expect(snapshotMagic, "sharded snapshot magic")
	version := rr.U64()
	if err := rr.Err(); err == nil && version != snapshotVersion {
		return nil, fmt.Errorf("shard: unsupported snapshot version %d (want %d)", version, snapshotVersion)
	}
	n := rr.Int()
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("shard: read snapshot header: %w", err)
	}
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("shard: snapshot shard count %d out of range 1..%d", n, MaxShards)
	}
	slots := make([]*slot, n)
	for i := range slots {
		seq := rr.U64()
		blob := rr.Bytes(maxShardSnapshot)
		if err := rr.Err(); err != nil {
			return nil, fmt.Errorf("shard: read shard %d frame: %w", i, err)
		}
		cs, err := core.Read(bytes.NewReader(blob))
		if err != nil {
			return nil, fmt.Errorf("shard: decode shard %d: %w", i, err)
		}
		slots[i] = newSlot(cs, seq)
	}
	cfg := Config{Shards: n, Core: slots[0].sum.Config()}
	for i, sl := range slots {
		if sl.sum.Config() != cfg.Core {
			return nil, fmt.Errorf("shard: shard %d config differs from shard 0", i)
		}
	}
	return &Summary{
		cfg:   cfg,
		part:  hasherFor(cfg),
		slots: slots,
	}, nil
}

// sniffSharded reports whether the buffered reader starts with the sharded
// snapshot magic, without consuming input.
func sniffSharded(br *bufio.Reader) bool {
	peek, err := br.Peek(binary.MaxVarintLen64)
	if err != nil && len(peek) == 0 {
		return false
	}
	magic, n := binary.Uvarint(peek)
	return n > 0 && magic == snapshotMagic
}
