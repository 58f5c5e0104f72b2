package ingest

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"higgs/internal/shard"
	"higgs/internal/stream"
	"higgs/internal/wal"
)

// BenchmarkSubmit times one Submit into a 4-shard pipeline without a WAL,
// committers running: routing, the all-or-nothing enqueue and the kicks.
// edges=1 is the smallest post; edges=256 is the benchmark's batch, which
// spans all four shards. The edges repeat, so the committers merge them
// into existing entries and the summary does not grow. A batch refused
// with ErrQueueFull is retried after a yield, so a row also pays for
// committers that fall behind.
func BenchmarkSubmit(b *testing.B) {
	for _, n := range []int{1, 256} {
		b.Run(fmt.Sprintf("edges=%d", n), func(b *testing.B) {
			cfg := shard.DefaultConfig()
			cfg.Shards = 4
			s, err := shard.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			p, err := New(s, Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			batch := make([]stream.Edge, n)
			for i := range batch {
				batch[i] = stream.Edge{S: uint64(i%64 + 1), D: uint64(i%7 + 1), W: 1, T: 10}
			}
			b.ReportAllocs()
			for range b.N {
				for {
					_, err := p.Submit(batch)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrQueueFull) {
						b.Fatal(err)
					}
					runtime.Gosched()
				}
			}
		})
	}
}

// BenchmarkRecover times boot recovery's replay — the WAL tail a daemon
// applies before it serves, which the benchmark's setup_s includes — into
// a fresh 4-shard summary. The log holds 1,000 records of 256 edges
// written through Submit, with a delete and a sliding-window expire every
// 100 records, so the replay takes every record kind's path. Building the
// log and each fresh summary is outside the timer; one op is one whole
// Recover.
func BenchmarkRecover(b *testing.B) {
	const records, batch, shards = 1000, 256, 4
	st, err := stream.Generate(stream.Config{
		Nodes: 20_000, Edges: records * batch, Span: 100_000, Skew: 2.0, Variance: 4, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := shard.DefaultConfig()
	cfg.Shards = shards
	fresh := func() *shard.Summary {
		s, err := shard.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	log, err := wal.Open(wal.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	p, err := New(fresh(), Config{WAL: log})
	if err != nil {
		b.Fatal(err)
	}
	var deletes, edges int64
	for r := 0; r < records; r++ {
		rec := st[r*batch : (r+1)*batch]
		for {
			_, err := p.Submit(rec)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				b.Fatal(err)
			}
			runtime.Gosched()
		}
		edges += int64(len(rec))
		if r%100 == 99 {
			// Delete an edge 50 records back, and expire everything
			// older than 300 records back.
			found, err := p.Delete(st[(r-50)*batch])
			if err != nil {
				b.Fatal(err)
			}
			if found {
				deletes++
			}
			if _, err := p.Expire(st[max(0, r-300)*batch].T); err != nil {
				b.Fatal(err)
			}
		}
	}
	p.Close()
	if deletes == 0 {
		b.Fatal("no delete found its edge: the log replays no delete that removes anything")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		sum := fresh()
		b.StartTimer()
		n, err := Recover(sum, log)
		if err != nil {
			b.Fatal(err)
		}
		if n != edges {
			b.Fatalf("replayed %d edges, want %d", n, edges)
		}
	}
}
