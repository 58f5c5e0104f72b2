package wal

import "testing"

// The WAL's two halves at the benchmark ruler's batch shape (256 edges a
// record):
//
//	go test -run '^$' -bench . -benchmem ./internal/wal
//
// BenchmarkAppendRecord is one append — encode, frame, buffered write —
// with the syncer running behind it; BenchmarkReplay is one Replay of a
// 1,000-record log, what boot recovery decodes before it inserts anything.

const benchBatch = 256

func BenchmarkAppendRecord(b *testing.B) {
	l, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := insert(edges(0, benchBatch))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := l.AppendRecord(rec, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatch), "ns/edge")
}

func BenchmarkReplay(b *testing.B) {
	const records = 1000
	l, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	for i := range records {
		if _, err := l.Append(edges(i*benchBatch, benchBatch), nil); err != nil {
			b.Fatal(err)
		}
	}
	var n int
	replay := func(rec Record) error {
		n += len(rec.Edges)
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := l.Replay(replay); err != nil {
			b.Fatal(err)
		}
	}
	if n != b.N*records*benchBatch {
		b.Fatalf("replayed %d edges, want %d", n, b.N*records*benchBatch)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "edges/s")
}
