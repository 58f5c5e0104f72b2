// Deliberately-red fixtures for the wallorder analyzer: shard applies
// that bypass the wal.Append/AppendExpire deliver callback.
package ingest

import (
	"shard"
	"wal"
)

type pipeline struct {
	sum *shard.Summary
	log *wal.Log
}

// submit is clean: the apply runs inside the deliver callback, under the
// log's admission critical section.
func (p *pipeline) submit(edges []shard.Edge) error {
	return p.log.Append(edges, func(firstSeq uint64) {
		p.sum.InsertShardAt(0, edges, firstSeq)
	})
}

// expire is clean for the same reason.
func (p *pipeline) expire(cutoff int64) error {
	return p.log.AppendExpire(cutoff, func(seq uint64) {
		p.sum.ExpireShardAt(0, cutoff, seq)
	})
}

// applyDirect makes an edge queryable with no durable record.
func (p *pipeline) applyDirect(edges []shard.Edge, seq uint64) {
	p.sum.InsertShardAt(0, edges, seq) // want "outside the wal.Append"
}

// async shows that an arbitrary func literal does not exempt the apply —
// only a literal passed to a wal append does.
func (p *pipeline) async(edges []shard.Edge, seq uint64) {
	go func() {
		p.sum.InsertShardAt(0, edges, seq) // want "outside the wal.Append"
	}()
}

// sweep is clean: a constant-0 sequence marks an unattributed maintenance
// expiry that is deliberately not WAL-ordered.
func (p *pipeline) sweep(cutoff int64) {
	p.sum.ExpireAt(cutoff, 0)
}

// replay is the suppressed recovery shape.
func (p *pipeline) replay(edges []shard.Edge, seq uint64) {
	//higgsvet:ignore wallorder fixture replay of records already durable in the log
	p.sum.InsertShardAt(0, edges, seq)
}

// admitLog is the pipeline's log seam: an interface *wal.Log satisfies.
type admitLog interface {
	Append(edges []shard.Edge, deliver func(firstSeq uint64)) error
}

// notALog has an Append too, but *wal.Log does not satisfy it.
type notALog interface {
	Append(n int, deliver func(seq uint64))
}

type seamed struct {
	sum   *shard.Summary
	log   admitLog
	other notALog
}

// submit is clean: the callback is the deliver of a wal append reached
// through the seam.
func (p *seamed) submit(edges []shard.Edge) error {
	return p.log.Append(edges, func(firstSeq uint64) {
		p.sum.InsertShardAt(0, edges, firstSeq)
	})
}

// bogus shows the seam is matched by what *wal.Log satisfies, not by a
// method that happens to be called Append.
func (p *seamed) bogus(edges []shard.Edge) {
	p.other.Append(len(edges), func(seq uint64) {
		p.sum.InsertShardAt(0, edges, seq) // want "outside the wal.Append"
	})
}
