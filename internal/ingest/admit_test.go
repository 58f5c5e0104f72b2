package ingest

import (
	"bytes"
	"reflect"
	"testing"

	"higgs/internal/core"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

// admitOp is one step of the admit script: submit st[lo:hi], expire, or
// delete st[del].
type admitOp struct {
	lo, hi int
	expire bool
	del    int
}

// admitQueueDepth is small enough that the script's largest submit puts
// more edges on one shard than a queue holds, so it is admitted only into
// an empty queue and 429'd (and retried) otherwise.
const admitQueueDepth = 256

// admitScript cuts the stream into submits of 1, 3 and 600 edges — a
// single edge, a small group, a large batch — with one 2000-edge submit
// (a group past admitQueueDepth on every shard it can land on), one expire
// mid-stream, and deletes of the newest submitted edge — the one most
// likely still queued — before and after it.
func admitScript(st stream.Stream) (ops []admitOp) {
	sizes := []int{1, 3, 600}
	for lo, k := 0, 0; lo < len(st); k++ {
		n := sizes[k%len(sizes)]
		switch {
		case k == 4:
			n = 2000
		case k == 6, k == 10:
			ops = append(ops, admitOp{del: lo - 1})
		case k == 8:
			ops = append(ops, admitOp{expire: true})
		}
		hi := min(lo+n, len(st))
		ops = append(ops, admitOp{lo: lo, hi: hi})
		lo = hi
	}
	return ops
}

// admitOutcome is everything the script's runs are compared on.
type admitOutcome struct {
	snap    []byte
	stats   []core.Stats
	answers []int64
}

func admitOutcomeOf(t *testing.T, sum *shard.Summary, st stream.Stream, cutoff int64) admitOutcome {
	t.Helper()
	out := admitOutcome{stats: sum.Stats().PerShard}
	span := st[len(st)-1].T
	for _, e := range st[:400] {
		out.answers = append(out.answers,
			sum.EdgeWeight(e.S, e.D, 0, span), sum.EdgeWeight(e.S, e.D, cutoff, span),
			sum.VertexOut(e.S, 0, span), sum.VertexIn(e.D, cutoff, span))
	}
	out.snap = snapshotBytes(t, sum)
	return out
}

// TestOneAdmitPath holds the pipeline's one admission path to references
// that are not the pipeline. The script runs three ways:
//
//   - as direct shard.Summary calls in script order — what a single
//     synchronous writer would have built;
//   - through a pipeline over the null log, which must leave the same
//     bytes, per-shard stats and answers as the direct calls;
//   - through a pipeline over a WAL, which must answer like the direct
//     calls and byte-equal — watermarks included — what Recover builds in a
//     fresh summary from the log that run wrote.
func TestOneAdmitPath(t *testing.T) {
	st := testStreamFor(t, 6000)
	ops := admitScript(st)
	cutoff := st[len(st)/4].T

	direct := newShardedFor(t, 4)
	for _, o := range ops {
		switch {
		case o.del > 0:
			if !direct.Delete(st[o.del]) {
				t.Fatalf("the script's delete of edge %d found nothing; the comparison would be vacuous", o.del)
			}
		case !o.expire:
			direct.InsertBatch(st[o.lo:o.hi])
		case direct.Expire(cutoff) == 0:
			t.Fatal("the script's expire reclaimed nothing; the comparison would be vacuous")
		}
	}
	want := admitOutcomeOf(t, direct, st, cutoff)

	run := func(t *testing.T, cfg Config) admitOutcome {
		t.Helper()
		sum := newShardedFor(t, 4)
		p, err := New(sum, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for _, o := range ops {
			var err error
			switch {
			case o.del > 0:
				_, err = p.Delete(st[o.del])
			case !o.expire:
				submitAll(t, p, st[o.lo:o.hi], o.hi-o.lo)
			default:
				_, err = p.Expire(cutoff)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		p.Flush()
		if n := p.Pending(); n != 0 {
			t.Fatalf("%d edges pending after Flush", n)
		}
		return admitOutcomeOf(t, sum, st, cutoff)
	}
	sameAnswers := func(t *testing.T, got admitOutcome) {
		t.Helper()
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("per-shard stats differ from the direct shard calls:\n got %+v\nwant %+v", got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.answers, want.answers) {
			t.Error("query answers differ from the direct shard calls")
		}
	}

	t.Run("null log", func(t *testing.T) {
		got := run(t, Config{QueueDepth: admitQueueDepth})
		sameAnswers(t, got)
		if !bytes.Equal(got.snap, want.snap) {
			t.Errorf("snapshot differs from the direct shard calls (%d vs %d bytes)", len(got.snap), len(want.snap))
		}
	})

	t.Run("WAL", func(t *testing.T) {
		dir := t.TempDir()
		log := openWAL(t, dir, 0)
		got := run(t, Config{QueueDepth: admitQueueDepth, WAL: log})
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		sameAnswers(t, got)
		if bytes.Equal(got.snap, want.snap) {
			t.Error("WAL-run and direct snapshots are byte-equal: the WAL run advanced no watermark")
		}

		log = openWAL(t, dir, 0)
		defer log.Close()
		fresh := newShardedFor(t, 4)
		replayed, err := Recover(fresh, log)
		if err != nil {
			t.Fatal(err)
		}
		if replayed != int64(len(st)) {
			t.Fatalf("Recover replayed %d edges, want the script's %d", replayed, len(st))
		}
		if rec := snapshotBytes(t, fresh); !bytes.Equal(got.snap, rec) {
			t.Errorf("snapshot differs from Recover of the log the run wrote (%d vs %d bytes)", len(got.snap), len(rec))
		}
	})
}

// TestSequentialSubmitsApplyInOrder: batches submitted one after another by
// one goroutine reach each shard in submission order, whatever mix of
// single edges and groups they are and however the committers' drains
// interleave with the submits — over the null log and over a WAL, where
// that order is also sequence order. Every edge carries its stream index as
// its weight; applyHook records what each committer hands its shard.
func TestSequentialSubmitsApplyInOrder(t *testing.T) {
	st := testStreamFor(t, 3000)
	for i := range st {
		st[i].W = int64(i)
	}
	for _, withWAL := range []bool{false, true} {
		sum := newShardedFor(t, 4)
		cfg := Config{}
		if withWAL {
			log := openWAL(t, t.TempDir(), 0)
			defer log.Close()
			cfg.WAL = log
		}
		p, err := New(sum, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Each committer's first drain waits until half the stream is
		// submitted, so queues hold several batches at once; the rest drain
		// as they come. The hook runs on one committer per shard, so each
		// shard's slice has one writer, ordered before the reads by Flush.
		applied := make([][]int64, sum.NumShards())
		halfway := make(chan struct{})
		p.applyHook = func(i int, edges []stream.Edge) {
			<-halfway
			for _, e := range edges {
				applied[i] = append(applied[i], e.W)
			}
		}
		sizes := []int{1, 3, 1, 40}
		for lo, k := 0, 0; lo < len(st); k++ {
			hi := min(lo+sizes[k%len(sizes)], len(st))
			if lo < len(st)/2 && hi >= len(st)/2 {
				close(halfway)
			}
			submitAll(t, p, st[lo:hi], hi-lo)
			lo = hi
		}
		p.Flush()

		want := make([][]int64, sum.NumShards())
		for _, e := range st {
			i := sum.ShardFor(e.S)
			want[i] = append(want[i], e.W)
		}
		if !reflect.DeepEqual(applied, want) {
			t.Errorf("wal=%v: committers applied edges out of submission order (or dropped some)", withWAL)
		}
		p.Close()
	}
}
