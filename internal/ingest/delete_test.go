package ingest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"higgs/internal/shard"
	"higgs/internal/stream"
)

// deletePoint interleaves one delete into a stream replay: once the first
// at edges have been submitted, delete e.
type deletePoint struct {
	at int
	e  stream.Edge
}

// deletePointsFor picks deletes that hit several shards — each removes an
// edge submitted a batch or more earlier — plus one that finds nothing and
// still consumes its sequence number.
func deletePointsFor(st stream.Stream, batch int) []deletePoint {
	n := len(st) / batch
	return []deletePoint{
		{at: batch * (n / 4), e: st[batch*(n/4)-1]},
		{at: batch * (n / 2), e: st[7]},
		{at: batch * (n / 2), e: stream.Edge{S: 1 << 50, D: 1 << 51, W: 1, T: st[0].T}},
		{at: batch * (3 * n / 4), e: st[batch*(n/2)+3]},
	}
}

// submitWithDeletes replays st[lo:hi] in fixed batches, issuing each delete
// of dels due in that range at its stream offset, and returns how many
// found their edge.
func submitWithDeletes(t *testing.T, p *Pipeline, st stream.Stream, lo, hi, batch int, dels []deletePoint) (found int) {
	t.Helper()
	for ; lo < hi; lo += batch {
		for _, d := range dels {
			if d.at != lo {
				continue
			}
			ok, err := p.Delete(d.e)
			if err != nil {
				t.Fatalf("delete at %d: %v", d.at, err)
			}
			if ok {
				found++
			}
		}
		submitAll(t, p, st[lo:min(lo+batch, hi)], batch)
	}
	return found
}

// synchronousReference is what a single synchronous writer holding the
// log's sequence counter would have built: every edge and every delete
// applied by a direct shard call, one at a time, at the sequence number a
// single-producer WAL run assigns it. No pipeline, no log.
func synchronousReference(t *testing.T, st stream.Stream, shards int, dels []deletePoint) []byte {
	t.Helper()
	sum := newShardedFor(t, shards)
	seq := uint64(0)
	for i, e := range st {
		for _, d := range dels {
			if d.at == i {
				seq++
				sum.Mutate(seq, stream.Mutation{Kind: stream.Delete, Edge: d.e})
			}
		}
		seq++
		sum.InsertShardAt(sum.ShardFor(e.S), []stream.Edge{e}, seq)
	}
	return snapshotBytes(t, sum)
}

// TestRecoverReplaysDeletes: insert → delete → crash → recover is
// byte-identical to a clean synchronous run with each delete at the same
// stream position — by pure replay, and from a snapshot taken between an
// edge's insert and its delete plus the tail. An unlogged delete fails
// both: replay re-inserts the edge and nothing removes it again.
func TestRecoverReplaysDeletes(t *testing.T) {
	const shards, batch = 4, 64
	st := testStreamFor(t, 4000)
	dels := deletePointsFor(st, batch)
	want := synchronousReference(t, st, shards, dels)

	for _, midSnapshot := range []bool{false, true} {
		name := "replay only"
		if midSnapshot {
			name = "snapshot between insert and delete"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			snapPath := filepath.Join(dir, "snapshot.higgs")
			log := openWAL(t, dir, 4096)
			crashed := newShardedFor(t, shards)
			p, err := New(crashed, Config{QueueDepth: 256, CommitInterval: 50 * time.Microsecond, WAL: log})
			if err != nil {
				t.Fatal(err)
			}
			// The snapshot lands after the first delete and after the edges
			// the later deletes remove, before those deletes.
			cut := dels[0].at + batch
			found := submitWithDeletes(t, p, st, 0, cut, batch, dels)
			if midSnapshot {
				if err := NewSnapshotter(crashed, p, log, snapPath, 0, nil).Snap(); err != nil {
					t.Fatal(err)
				}
			}
			found += submitWithDeletes(t, p, st, cut, len(st), batch, dels)
			if found != len(dels)-1 {
				t.Fatalf("%d of %d deletes found their edge, want all but the planted miss", found, len(dels))
			}
			// Simulated crash: only the fsync'd log (and snapshot) survive.
			p.Close()
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}

			recovered := newShardedFor(t, shards)
			if midSnapshot {
				f, err := os.Open(snapPath)
				if err != nil {
					t.Fatal(err)
				}
				recovered, err = shard.Read(f)
				f.Close()
				if err != nil {
					t.Fatal(err)
				}
			}
			log2 := openWAL(t, dir, 4096)
			defer log2.Close()
			replayed, err := Recover(recovered, log2)
			if err != nil {
				t.Fatal(err)
			}
			if midSnapshot == (replayed == int64(len(st))) {
				t.Fatalf("replayed %d of %d edges with midSnapshot=%v", replayed, len(st), midSnapshot)
			}
			if got := snapshotBytes(t, recovered); !bytes.Equal(got, want) {
				t.Fatalf("recovery diverges from the clean synchronous run (%d vs %d bytes): a delete was lost or applied twice",
					len(got), len(want))
			}
		})
	}
}

// TestPipelineDeleteBarrier: a delete is sequenced after every batch
// accepted before it — an edge still sitting in a committer's queue is
// applied, found and removed, not reported missing and applied afterwards.
func TestPipelineDeleteBarrier(t *testing.T) {
	sum := newShardedFor(t, 2)
	p, err := New(sum, Config{QueueDepth: 4096, CommitInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	e := stream.Edge{S: 1, D: 2, W: 3, T: 10}
	if _, err := p.Submit([]stream.Edge{e, {S: 5, D: 6, W: 1, T: 11}}); err != nil {
		t.Fatal(err)
	}
	found, err := p.Delete(e)
	if err != nil || !found {
		t.Fatalf("Delete of a queued edge: found = %v, err = %v; want true, nil", found, err)
	}
	p.Flush()
	if w := sum.EdgeWeight(1, 2, 0, 100); w != 0 {
		t.Fatalf("weight after delete + flush = %d, want 0", w)
	}
	if found, err := p.Delete(stream.Edge{S: 9, D: 9, W: 1, T: 10}); err != nil || found {
		t.Fatalf("Delete of a never-inserted edge: found = %v, err = %v; want false, nil", found, err)
	}
}

// TestPipelineDeleteClosed: Delete after Close reports ErrClosed.
func TestPipelineDeleteClosed(t *testing.T) {
	sum := newShardedFor(t, 1)
	p, err := New(sum, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Delete(stream.Edge{S: 1, D: 2, W: 1, T: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete on closed pipeline: %v", err)
	}
}

// TestDirectDeletePanicsWhenWALOwned: the guard that keeps an unlogged
// Expire off a WAL-owned summary covers an unlogged Delete too.
func TestDirectDeletePanicsWhenWALOwned(t *testing.T) {
	log := openWAL(t, t.TempDir(), 0)
	defer log.Close()
	sum := newShardedFor(t, 2)
	p, err := New(sum, Config{WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	e := stream.Edge{S: 1, D: 2, W: 1, T: 1}
	m := stream.Mutation{Kind: stream.Delete, Edge: e}
	mustPanicHere(t, "Delete", func() { sum.Delete(e) })
	mustPanicHere(t, "Mutate(0, delete)", func() { sum.Mutate(0, m) })
	mustPanicHere(t, "Apply(i, 0, delete)", func() { sum.Apply(sum.ShardFor(e.S), 0, m) })
}

// TestUnloggedWritePanicsWhenWALOwned: the guard covers every write, not
// just the rewrites. An unlogged insert (through any entry point) or
// Finalize on a WAL-owned summary panics before it touches a shard, so the
// summary never answers what crash recovery of its log would lose.
func TestUnloggedWritePanicsWhenWALOwned(t *testing.T) {
	dir := t.TempDir()
	log := openWAL(t, dir, 0)
	sum := newShardedFor(t, 4)
	p, err := New(sum, Config{WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	st := testStreamFor(t, 1000)
	submitAll(t, p, st, 100)
	p.Flush()
	last := st[len(st)-1]
	e := stream.Edge{S: last.S, D: last.D, W: 7, T: last.T}
	before := sum.EdgeWeight(e.S, e.D, e.T, e.T)
	edges := []stream.Edge{e}
	mustPanicHere(t, "Insert", func() { sum.Insert(e) })
	mustPanicHere(t, "InsertBatch", func() { sum.InsertBatch(edges) })
	mustPanicHere(t, "InsertShardAt(i, edges, 0)", func() { sum.InsertShardAt(sum.ShardFor(e.S), edges, 0) })
	mustPanicHere(t, "Mutate(0, insert)", func() { sum.Mutate(0, stream.Mutation{Kind: stream.Insert, Edges: edges}) })
	mustPanicHere(t, "Finalize", sum.Finalize)
	p.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log = openWAL(t, dir, 0)
	defer log.Close()
	recovered := newShardedFor(t, 4)
	if _, err := Recover(recovered, log); err != nil {
		t.Fatal(err)
	}
	got, want := sum.EdgeWeight(e.S, e.D, e.T, e.T), recovered.EdgeWeight(e.S, e.D, e.T, e.T)
	if got != before || got != want {
		t.Fatalf("edge answers %d after the unlogged writes (%d before), %d after recovery", got, before, want)
	}
}
